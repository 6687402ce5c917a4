package repro

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// simulationEdges lists every import an analysis package (one that reads
// logs: parse, accumulate, window, render, serve) makes of a simulation
// package (one that invents the world the logs come from). The analysis
// side is meant to stand on log files and reference data alone, so this
// list may only lose lines.
var simulationEdges = map[string]bool{
	"internal/render -> internal/synth":  true, // Context.Gen: ground truth for probing/groundtruth
	"internal/render -> internal/policy": true,
	"internal/render -> internal/prober": true,
	"internal/serve -> internal/synth":   true, // NewServer(st, gen) hands Context.Gen through
}

var (
	analysisPkgs = map[string]bool{"logfmt": true, "stats": true, "statecodec": true, "core": true,
		"timewin": true, "pipeline": true, "render": true, "serve": true, "obs": true}
	simPkgs = map[string]bool{"internal/synth": true, "internal/policy": true,
		"internal/prober": true, "internal/proxysim": true}
	// proxysimImporters are the corpus writers: the only non-test code
	// that turns generator requests into log records.
	proxysimImporters = map[string]bool{"cmd/syngen": true, "cmd/censorlyzer": true}
)

// importOf is one import of a package of this module (pkg, relative to
// the module root) by a file in dir.
type importOf struct {
	dir, pkg string
	test     bool // the importing file is a _test.go file
}

// sourceImports parses the import clauses of every Go file in the tree
// (bench/ included, its build output not).
func sourceImports(t *testing.T) []importOf {
	t.Helper()
	var out []importOf
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || path == "bench/out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			if pkg, ok := strings.CutPrefix(imp, "syriafilter/"); ok {
				out = append(out, importOf{filepath.ToSlash(filepath.Dir(path)), pkg, strings.HasSuffix(path, "_test.go")})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// The simulated world stays where it is used: only the corpus writers
// link the proxy cluster, the analysis packages reach simulation packages
// along the listed edges and no others, and the text renderer has the one
// consumer it was written for.
func TestImportGraph(t *testing.T) {
	seen := map[string]bool{}
	for _, im := range sourceImports(t) {
		if im.pkg == "internal/report" && im.dir != "internal/report" {
			seen["report <- "+im.dir] = true
			if im.dir != "internal/render" {
				t.Errorf("%s imports internal/report; internal/render is its one consumer", im.dir)
			}
		}
		if im.test {
			continue
		}
		if im.pkg == "internal/proxysim" && !proxysimImporters[im.dir] {
			t.Errorf("%s imports internal/proxysim; only the corpus writers may", im.dir)
		}
		// internal/obs/trace is part of obs.
		top, _, _ := strings.Cut(strings.TrimPrefix(im.dir, "internal/"), "/")
		if strings.HasPrefix(im.dir, "internal/") && analysisPkgs[top] && simPkgs[im.pkg] {
			edge := im.dir + " -> " + im.pkg
			seen[edge] = true
			if !simulationEdges[edge] {
				t.Errorf("new analysis -> simulation import: %s", edge)
			}
		}
	}
	// Also what proves the walk saw the tree at all.
	if !seen["report <- internal/render"] {
		t.Error("internal/render does not import internal/report: the package has no consumer left")
	}
	for edge := range simulationEdges {
		if !seen[edge] {
			t.Errorf("%s not found: if the import is gone, delete its line from simulationEdges", edge)
		}
	}
}
