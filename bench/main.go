// Command bench is the performance ledger for censorlyzer and censord:
// it builds the real binaries, generates a seeded corpus, drives them
// from outside through every phase of a record's life, checks every
// output, and prints each metric by name. See README.md.
//
//	bash bench/run.sh --workload full --seed 1 --seconds 40 --trace 0
//	bash bench/run.sh -workload all -runs 10 -out bench/out/A.jsonl
//	bash bench/run.sh -compare bench/out/A.jsonl bench/out/B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run, or 'all'")
		seed     = flag.Uint64("seed", 1, "corpus seed (run i of -runs uses seed+i)")
		seconds  = flag.Float64("seconds", runSeconds, "measuring time the phase lengths are scaled to")
		traced   = flag.Int("trace", 0, "1 = the short traced run: spans recorded, per-layer metrics reported")
		runs     = flag.Int("runs", 1, "repeat each workload this many times, each in a fresh harness process")
		out      = flag.String("out", "", "result set to append to (JSON lines; default bench/out/results.jsonl)")
		compare  = flag.Bool("compare", false, "compare two result sets: -compare A B")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as defined by this program and exit")
	)
	flag.Parse()
	switch {
	case *manifest:
		os.Stdout.Write(manifestJSON())
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: -compare A.jsonl B.jsonl")
		}
		ok, err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
	case *name == "all" || *runs > 1:
		if err := suite(*name, *seed, *seconds, *traced, *runs, *out); err != nil {
			fatalf("%v", err)
		}
	default:
		w, ok := workloadByName(*name)
		if !ok {
			fatalf("unknown workload %q (have %v)", *name, workloadNames())
		}
		os.Exit(single(w, *seed, *seconds, *traced == 1, *out))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// repoRoot finds the checkout the harness runs in: the working
// directory when started through run.sh, its parent under
// `go -C bench run .`.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "censord")); err == nil && st.IsDir() {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("run from the repository root (cmd/censord not found here or in the parent)")
}

// single executes one run and prints the contract's result line last.
// The exit code is 0 only for a complete, correct run.
func single(w workload, seed uint64, seconds float64, traced bool, out string) int {
	v, err := measure(w, seed, seconds, traced, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
		return 1
	}
	line, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
		return 1
	}
	fmt.Println(string(line))
	if !v.Correct {
		return 1
	}
	return 0
}

// measure builds the binaries, runs every phase, prints the report,
// stores the record (and the trace) and returns the result object.
func measure(w workload, seed uint64, seconds float64, traced bool, out string) (verdict, error) {
	root, err := repoRoot()
	if err != nil {
		return verdict{}, err
	}
	outDir := filepath.Join(root, "bench", "out")
	if out == "" {
		out = filepath.Join(outDir, "results.jsonl")
	}
	r := &run{
		w: w, seed: seed, plan: planFor(seconds, traced), traced: traced,
		logs: filepath.Join(outDir, "logs"),
		res:  newResults(), prov: newProvenance(root, seed),
	}
	if traced {
		r.rec = newRecorder()
	}
	for _, dir := range []string{r.logs, filepath.Dir(out)} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return verdict{}, err
		}
	}
	bins, took, err := buildBinaries(root, filepath.Join(outDir, "bin"))
	if err != nil {
		return verdict{}, err
	}
	r.bins = bins
	r.res.put("env.build_s", took.Seconds())
	if r.work, err = os.MkdirTemp(outDir, "run-"+w.Name+"-"); err != nil {
		return verdict{}, err
	}
	defer os.RemoveAll(r.work)

	if err := r.execute(); err != nil {
		return verdict{}, err
	}
	r.prov.Connections = r.maxConns
	if traced {
		r.res.put("trace.spans", float64(r.rec.count()))
		if err := r.rec.write(filepath.Join(outDir, "trace-"+w.Name+".json"), w.Name, seed); err != nil {
			return verdict{}, err
		}
	}
	rec := r.record(seconds)
	rec.report(os.Stderr)
	if err := appendRecord(out, rec); err != nil {
		return verdict{}, err
	}
	return rec.verdict()
}

// suite repeats workloads, each run in a fresh harness process — the
// way the driver runs them — with seed+i for repeat i, so two suites
// started with the same -seed use the same seeds.
func suite(name string, seed uint64, seconds float64, traced, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloadNames()
	if name != "all" {
		if _, ok := workloadByName(name); !ok {
			return fmt.Errorf("unknown workload %q (have %v)", name, names)
		}
		names = []string{name}
	}
	failed := 0
	for i := 0; i < runs; i++ {
		for _, n := range names {
			args := []string{"--workload", n, "--seed", strconv.FormatUint(seed+uint64(i), 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(traced)}
			if out != "" {
				args = append(args, "-out", out)
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", n, seed+uint64(i), err)
				failed++
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d runs failed", failed, runs*len(names))
	}
	return nil
}
