// Package e2e black-box tests the censord daemon: TestMain compiles
// the real binary, TestChaos drives seeded random fault-injection
// sequences against a batch-model oracle (see chaos_test.go), and
// TestLoadSmoke runs a closed-loop ingest+query load probe (see
// load_test.go).
//
// The package holds only external tests on purpose: everything it
// observes — HTTP responses, exit codes, checkpoint directories,
// /metrics — is a surface a real operator has.
package e2e

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

var (
	chaosActions = flag.Int("chaos.actions", 60, "length of the chaos action sequence")
	chaosSeed    = flag.Int64("chaos.seed", 1, "seed of the chaos action sequence")

	loadDuration = flag.Duration("load.duration", 2*time.Second, "load smoke duration")
	loadTargetMB = flag.Float64("load.target-mb", 8, "load smoke target ingest rate, MB/s")
)

// censordBin is the freshly built daemon binary, set by TestMain.
var censordBin string

func TestMain(m *testing.M) {
	flag.Parse()
	tmp, err := os.MkdirTemp("", "censord-e2e-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(tmp)

	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	censordBin = filepath.Join(tmp, "censord")
	args := []string{"build"}
	if raceEnabled {
		// The chaos run must be race-clean inside the daemon too, not
		// just in the test harness.
		args = append(args, "-race")
	}
	args = append(args, "-o", censordBin, "./cmd/censord")
	build := exec.Command("go", args...)
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "e2e: building censord: %v\n%s", err, out)
		os.Exit(1)
	}

	code := m.Run()
	os.RemoveAll(tmp)
	os.Exit(code)
}
