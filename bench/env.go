package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// binaries are the programs under test, built from the checkout the
// harness runs in.
type binaries struct {
	syngen, censorlyzer, censord string
}

// buildBinaries compiles the three commands into dir. It must run from
// the repository root. Build time is reported (env.build_s) but kept out
// of setup_s: the go build cache makes it bimodal.
func buildBinaries(root, dir string) (binaries, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return binaries{}, 0, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"./cmd/syngen", "./cmd/censorlyzer", "./cmd/censord")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, 0, fmt.Errorf("go build: %w\n%s", err, out)
	}
	return binaries{
		syngen:      filepath.Join(dir, "syngen"),
		censorlyzer: filepath.Join(dir, "censorlyzer"),
		censord:     filepath.Join(dir, "censord"),
	}, time.Since(t0), nil
}

// provenance is stored with every result so numbers from different
// boxes, commits or settings are never compared by accident.
type provenance struct {
	NProc         int      `json:"nproc"`
	GOMAXPROCS    int      `json:"gomaxprocs"`
	GoVersion     string   `json:"go_version"`
	Kernel        string   `json:"kernel"`
	VCSRevision   string   `json:"vcs_revision"`
	VCSDirty      bool     `json:"vcs_dirty"`
	Seed          uint64   `json:"seed"`
	CorpusBytes   int64    `json:"corpus_bytes"`
	CorpusRecords uint64   `json:"corpus_records"`
	Modules       []string `json:"modules"`
	DaemonFlags   []string `json:"daemon_flags"`
	Connections   int      `json:"generator_connections"`
	RecordedAt    string   `json:"recorded_at"`
}

func newProvenance(root string, seed uint64) *provenance {
	p := &provenance{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Kernel:      kernelRelease(),
		VCSRevision: "unknown",
		Seed:        seed,
		RecordedAt:  time.Now().UTC().Format(time.RFC3339),
	}
	// The driver's checkout is not a git repository; "unknown" is the
	// honest answer there.
	if out, err := gitOutput(root, "rev-parse", "HEAD"); err == nil {
		p.VCSRevision = out
		st, err := gitOutput(root, "status", "--porcelain")
		p.VCSDirty = err != nil || st != ""
	}
	return p
}

func gitOutput(root string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = root
	out, err := cmd.Output()
	return strings.TrimSpace(string(out)), err
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b []byte
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}
