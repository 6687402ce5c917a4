package repro

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
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

// goFiles lists every Go file in the tree, slash-separated and relative
// to the module root (bench/ included, its build output not).
func goFiles(t *testing.T) []string {
	t.Helper()
	var out []string
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
		if strings.HasSuffix(path, ".go") {
			out = append(out, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sourceImports parses the import clauses of every Go file in the tree.
func sourceImports(t *testing.T) []importOf {
	t.Helper()
	var out []importOf
	fset := token.NewFileSet()
	for _, path := range goFiles(t) {
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if pkg, ok := strings.CutPrefix(imp, "syriafilter/"); ok {
				out = append(out, importOf{filepath.ToSlash(filepath.Dir(path)), pkg, strings.HasSuffix(path, "_test.go")})
			}
		}
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

// exportAllowlist names the exported functions, methods and constants
// that no binary and no harness run reaches but another package's tests
// still use, each with the reason it stays. Like simulationEdges, this
// list may only lose lines.
var exportAllowlist = map[string]string{
	"core.NewAnalyzer":                 "all-modules reference analyzer of the root, render and serve tests; retires with ROADMAP item 4",
	"obs.Histogram.Count":              "serve's stage-metric tests read how many observations a histogram took",
	"timewin.Partition.UnmarshalState": "the canonical decode serve's frame-memo test compares a checkpoint against",
	"stats.ProportionCI":               "the §3.3 Wald interval TestPaperSampleClaim (core) checks the 4 % sample against",
}

// TestEveryExportHasACaller type-checks the module's non-test code plus
// the harness (bench/*.go) and walks what the binaries reach: from every
// main and init, through every name a reached declaration uses. A method
// is also reached when its receiver type is and some interface declares
// its name. Every exported function, method and constant under internal/
// and cmd/ must be reached or on exportAllowlist.
func TestEveryExportHasACaller(t *testing.T) {
	if len(exportAllowlist) > 4 {
		t.Errorf("exportAllowlist has %d entries; it may hold 4 at most, and only lose lines", len(exportAllowlist))
	}
	m := loadModule(t)
	reached := m.reach()
	seen := map[string]bool{}
	var errs []string
	for _, d := range m.decls {
		if !strings.HasPrefix(d.file, "internal/") && !strings.HasPrefix(d.file, "cmd/") {
			continue
		}
		switch d.obj.(type) {
		case *types.Func, *types.Const:
		default:
			continue
		}
		if !d.obj.Exported() {
			continue
		}
		name := declName(d.obj)
		if _, ok := exportAllowlist[name]; ok {
			seen[name] = true
			if reached[d.obj] {
				errs = append(errs, name+" is on exportAllowlist but a binary reaches it: delete its line")
			}
			continue
		}
		if !reached[d.obj] {
			errs = append(errs, d.file+":"+strconv.Itoa(m.fset.Position(d.obj.Pos()).Line)+" "+name+
				": no binary and no harness run reaches it; delete it, move it into a _test.go file, or allowlist it with a reason")
		}
	}
	for name := range exportAllowlist {
		if !seen[name] {
			errs = append(errs, name+" is on exportAllowlist but no longer exists: delete its line")
		}
	}
	sort.Strings(errs)
	for _, e := range errs {
		t.Error(e)
	}
}

// modDecl is one package-level declaration (or method) of the module.
type modDecl struct {
	file string // relative to the module root
	obj  types.Object
	node ast.Node // what its uses are collected from
}

type module struct {
	fset  *token.FileSet
	files map[string][]*ast.File // by import path
	pkgs  map[string]*types.Package
	info  *types.Info
	std   types.Importer
	decls []modDecl
}

// loadModule parses and type-checks every non-test Go file of the module
// and of the harness; the standard library is type-checked from source.
func loadModule(t *testing.T) *module {
	t.Helper()
	fset := token.NewFileSet()
	m := &module{
		fset:  fset,
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
		std:   importer.ForCompiler(fset, "source", nil),
	}
	for _, path := range goFiles(t) {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		imp := "syriafilter"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			imp += "/" + dir
		}
		m.files[imp] = append(m.files[imp], f)
	}
	for imp := range m.files {
		if _, err := m.Import(imp); err != nil {
			t.Fatal(err)
		}
	}
	for _, files := range m.files {
		for _, f := range files {
			file := fset.File(f.Pos()).Name()
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					m.decls = append(m.decls, modDecl{file, m.info.Defs[d.Name], d})
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							m.decls = append(m.decls, modDecl{file, m.info.Defs[s.Name], s})
						case *ast.ValueSpec:
							for _, n := range s.Names {
								m.decls = append(m.decls, modDecl{file, m.info.Defs[n], s})
							}
						}
					}
				}
			}
		}
	}
	return m
}

// Import type-checks a package of the module on first use and hands every
// other path to the standard library's source importer.
func (m *module) Import(path string) (*types.Package, error) {
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	if p := m.pkgs[path]; p != nil {
		return p, nil
	}
	p, err := (&types.Config{Importer: m}).Check(path, m.fset, files, m.info)
	m.pkgs[path] = p
	return p, err
}

// reach returns every declaration a main or an init reaches.
func (m *module) reach() map[types.Object]bool {
	uses := map[types.Object][]types.Object{}
	methods := map[types.Object][]types.Object{} // receiver type -> its methods
	var roots []types.Object
	for _, d := range m.decls {
		var used []types.Object
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if u := origin(m.info.Uses[id]); u != nil {
					used = append(used, u)
				}
			}
			return true
		})
		obj := d.obj
		if obj.Name() == "_" { // var _ = ...: always evaluated
			roots = append(roots, used...)
			continue
		}
		uses[obj] = append(uses[obj], used...)
		if fn, ok := d.node.(*ast.FuncDecl); ok {
			switch {
			case fn.Recv != nil:
				if recv := recvType(obj); recv != nil {
					methods[recv] = append(methods[recv], obj)
				}
			case fn.Name.Name == "init", fn.Name.Name == "main" && obj.Pkg().Name() == "main":
				roots = append(roots, obj)
			}
		}
	}
	ifaceNames := m.interfaceMethodNames()
	reached := map[types.Object]bool{}
	for len(roots) > 0 {
		obj := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if reached[obj] {
			continue
		}
		reached[obj] = true
		roots = append(roots, uses[obj]...)
		for _, meth := range methods[obj] {
			if ifaceNames[meth.Name()] {
				roots = append(roots, meth)
			}
		}
	}
	return reached
}

// interfaceMethodNames collects the method names of every interface the
// module mentions or a package it imports exports. Packages those import
// in turn do not count (crypto/elliptic.Curve's Add reaches no Add of
// ours), nor do unexported interfaces, which change between Go releases.
func (m *module) interfaceMethodNames() map[string]bool {
	names := map[string]bool{}
	add := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	for _, tv := range m.info.Types {
		add(tv.Type)
	}
	for _, obj := range m.info.Defs {
		if obj != nil {
			add(obj.Type())
		}
	}
	for _, p := range m.pkgs {
		for _, imp := range p.Imports() {
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					add(tn.Type())
				}
			}
		}
	}
	return names
}

// origin maps a use to the module-level declaration it names: the generic
// original of an instantiated function or method, nil for locals, fields
// and other packages' names.
func origin(obj types.Object) types.Object {
	if obj == nil || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "syriafilter") {
		return nil
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recvType(fn) != nil || fn.Parent() == fn.Pkg().Scope() {
			return fn
		}
		return nil
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return nil
	}
	return obj
}

// recvType is the declared type a method belongs to, nil for a function
// or an interface method.
func recvType(obj types.Object) types.Object {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	typ := sig.Recv().Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	if n, ok := typ.(*types.Named); ok && !types.IsInterface(n) {
		return n.Origin().Obj()
	}
	return nil
}

// declName is pkg.Name, or pkg.Type.Method for a method.
func declName(obj types.Object) string {
	name := obj.Pkg().Name() + "."
	if recv := recvType(obj); recv != nil {
		name += recv.Name() + "."
	}
	return name + obj.Name()
}
