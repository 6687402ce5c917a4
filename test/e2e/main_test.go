// Package e2e black-box tests the censord daemon: TestMain compiles
// the real censord and censorlyzer binaries, TestChaos drives seeded
// random fault-injection sequences against a batch-model oracle (see
// chaos_test.go), and TestBootFlags covers what only a command line
// sets — boot -input files, a restart from -checkpoint alone and
// censorlyzer's -from/-to window (see flags_test.go). Which test
// checks each of censord's properties is mapped in DESIGN.md ("Where
// each property is checked").
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
)

var (
	chaosActions = flag.Int("chaos.actions", 60, "length of the chaos action sequence")
	chaosSeed    = flag.Int64("chaos.seed", 1, "seed of the chaos action sequence")
)

// censordBin and censorlyzerBin are the freshly built binaries, set by
// TestMain.
var censordBin, censorlyzerBin string

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
	censorlyzerBin = filepath.Join(tmp, "censorlyzer")
	for _, b := range []struct {
		out, pkg string
		race     bool
	}{
		// The chaos run must be race-clean inside the daemon too, not
		// just in the test harness.
		{censordBin, "./cmd/censord", raceEnabled},
		{censorlyzerBin, "./cmd/censorlyzer", false},
	} {
		args := []string{"build"}
		if b.race {
			args = append(args, "-race")
		}
		build := exec.Command("go", append(args, "-o", b.out, b.pkg)...)
		build.Dir = root
		if out, err := build.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "e2e: building %s: %v\n%s", b.pkg, err, out)
			os.Exit(1)
		}
	}

	code := m.Run()
	os.RemoveAll(tmp)
	os.Exit(code)
}
