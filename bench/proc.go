package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// procResult is one child process run from exec to exit.
type procResult struct {
	start  time.Time
	wall   time.Duration
	cpu    float64 // user+sys seconds
	hwmMB  float64 // peak resident set, from VmHWM
	stdout []byte
	stderr []byte
	err    error
}

// readVmHWM reads the peak resident set of pid in kB. It fails once the
// process has exited: a zombie has no address space left to report.
func readVmHWM(pid int) (int64, bool) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, false
	}
	i := bytes.Index(b, []byte("VmHWM:"))
	if i < 0 {
		return 0, false
	}
	f := bytes.Fields(b[i+len("VmHWM:"):])
	if len(f) == 0 {
		return 0, false
	}
	kb, err := strconv.ParseInt(string(f[0]), 10, 64)
	return kb, err == nil
}

// hwmPollEvery is how often a running child's VmHWM is sampled. The
// value is a high-water mark, so the last sample before exit is the
// peak up to at most this long before the end; ru_maxrss cannot be used
// instead because a child inherits its parent's resident set at fork.
const hwmPollEvery = 2 * time.Millisecond

// runProc runs bin to completion, capturing output, CPU time and peak
// resident set.
func runProc(bin string, args ...string) procResult {
	cmd := exec.Command(bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return procResult{err: err}
	}
	stop, polled := make(chan struct{}), make(chan int64)
	go func() {
		var hwm int64
		tick := time.NewTicker(hwmPollEvery)
		defer tick.Stop()
		for {
			if kb, ok := readVmHWM(cmd.Process.Pid); ok {
				hwm = kb
			}
			select {
			case <-stop:
				polled <- hwm
				return
			case <-tick.C:
			}
		}
	}()
	err := cmd.Wait()
	wall := time.Since(start)
	close(stop)
	res := procResult{start: start, wall: wall, hwmMB: float64(<-polled) / 1024, stdout: out.Bytes(), stderr: errb.Bytes()}
	if ps := cmd.ProcessState; ps != nil {
		res.cpu = ps.UserTime().Seconds() + ps.SystemTime().Seconds()
	}
	if err != nil {
		res.err = fmt.Errorf("%s: %w", bin, err)
	}
	return res
}

// selfCPU is the harness's own user+sys CPU seconds so far: the load
// generator's share of the box is derived from it.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
