package ibasec

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	pathpkg "path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// runnerDir is internal/runner, the one package exempt from both rules
// below: it synchronises its workers, and its pool counts by name.
var runnerDir = filepath.Join("internal", "runner")

// walkSources parses, with mode, every non-test Go file of this module
// outside internal/runner (bench/ is another module) and hands it to
// visit.
func walkSources(t *testing.T, mode parser.Mode, visit func(path string, fset *token.FileSet, f *ast.File)) {
	t.Helper()
	walkGo(t, mode, func(path string) bool {
		return !strings.HasSuffix(path, "_test.go") && filepath.Dir(path) != runnerDir
	}, visit)
}

// walkGo parses, with mode, every Go file of this module (not bench/)
// whose path keep accepts and hands it to visit.
func walkGo(t *testing.T, mode parser.Mode, keep func(path string) bool, visit func(path string, fset *token.FileSet, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module (bench/)
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || !keep(path) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, mode)
		if err != nil {
			return err
		}
		checked++
		visit(path, fset, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no Go files found: the walk did not start at the module root")
	}
}

// TestOnlyRunnerSynchronises enforces DESIGN §8's single-owner rule: a
// simulation run is one goroutine and nothing it owns takes a lock, so
// internal/runner, whose workers run the simulations, is the only
// package of the module that may import sync or sync/atomic.
func TestOnlyRunnerSynchronises(t *testing.T) {
	walkSources(t, parser.ImportsOnly, func(path string, _ *token.FileSet, f *ast.File) {
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "sync" || p == "sync/atomic" {
				t.Errorf("%s imports %q: only %s may synchronise (DESIGN §8, single-owner rule)", path, p, runnerDir)
			}
		}
	})
}

// TestNoCountingByName enforces DESIGN §8's counters rule: a device or
// plane counts through its declared typed ids, so no non-test code
// outside internal/runner passes a string literal to Inc, Counter or Get
// — a mistyped literal compiles, where a mistyped id does not.
func TestNoCountingByName(t *testing.T) {
	walkSources(t, parser.SkipObjectResolution, func(path string, fset *token.FileSet, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				switch sel.Sel.Name {
				case "Inc", "Counter", "Get":
					t.Errorf("%s: %s(%s, …) counts by name: declare the counter and use its typed id (DESIGN §8, Counters)",
						fset.Position(call.Pos()), sel.Sel.Name, lit.Value)
				}
			}
			return true
		})
	})
}

// TestEveryFuzzTargetInCI keeps scripts/ci.sh's fuzz table whole: each
// func FuzzX in a _test.go file of this module (not bench/) needs a
// "<package dir> FuzzX" line there, or CI never fuzzes it.
func TestEveryFuzzTargetInCI(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join("scripts", "ci.sh"))
	if err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(string(ci), "<<'EOF'\n")
	table, _, _ = strings.Cut(table, "\nEOF")
	listed := map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		listed[strings.Join(strings.Fields(line), " ")] = true
	}
	found := 0
	walkGo(t, parser.SkipObjectResolution, func(path string) bool { return strings.HasSuffix(path, "_test.go") },
		func(path string, _ *token.FileSet, f *ast.File) {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
					found++
					if entry := filepath.ToSlash(filepath.Dir(path)) + " " + fn.Name.Name; !listed[entry] {
						t.Errorf("%s: %s is not in scripts/ci.sh's fuzz table: add the line %q", path, fn.Name.Name, entry)
					}
				}
			}
		})
	if found == 0 {
		t.Fatal("no fuzz targets found")
	}
}

// modulePackages is this module and bench/ (its own module, which
// imports this one by its import path) type-checked from source: one
// package per directory of non-test files that build on this platform,
// with every identifier's definition and uses in one types.Info.
type modulePackages struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	info  types.Info
	dirs  map[string]string // import path → directory
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	// testRefs holds, per directory, what its _test.go files name:
	// "path.Name" for a selector on an imported package and ".Name"
	// for every selector.
	testRefs map[string]map[string]bool
}

func loadModule(t *testing.T) *modulePackages {
	t.Helper()
	fset := token.NewFileSet()
	m := &modulePackages{
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		info:     types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		dirs:     map[string]string{},
		files:    map[string][]*ast.File{},
		pkgs:     map[string]*types.Package{},
		testRefs: map[string]map[string]bool{},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Dir(path), d.Name()
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(name, "_test.go") {
			m.noteTestRefs(dir, f)
			return nil
		}
		m.files[dir] = append(m.files[dir], f)
		m.dirs[filepath.ToSlash(filepath.Join("ibasec", dir))] = dir
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range m.dirs {
		if _, err := m.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// noteTestRefs records the selectors of a _test.go file in dir.
func (m *modulePackages) noteTestRefs(dir string, f *ast.File) {
	imports := map[string]string{} // local name → import path
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		name := pathpkg.Base(path)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = path
	}
	refs := m.testRefs[dir]
	if refs == nil {
		refs = map[string]bool{}
		m.testRefs[dir] = refs
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			refs["."+sel.Sel.Name] = true
			if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
				refs[imports[x.Name]+"."+sel.Sel.Name] = true
			}
		}
		return true
	})
}

// namedByOtherTests reports whether the _test.go files of a directory
// other than dir name ref (see testRefs).
func (m *modulePackages) namedByOtherTests(dir, ref string) bool {
	for d, refs := range m.testRefs {
		if d != dir && refs[ref] {
			return true
		}
	}
	return false
}

// Import checks a package of this module once, recording its
// definitions and uses, and hands any other to the standard library's
// source importer.
func (m *modulePackages) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *modulePackages) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	dir, ok := m.dirs[path]
	if !ok {
		return m.std.ImportFrom(path, srcDir, mode)
	}
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, m.files[dir], &m.info)
	m.pkgs[path] = pkg
	return pkg, err
}

// TestNoTestOnlyExports keeps production code that only tests call out
// of the module: every exported func, method, type and var declared in a
// non-test file under internal/ must be used by a non-test file of this
// module (cmd/ and examples/ included) or of bench/. The one exception
// is a name another directory's _test.go files refer to, by name, since
// export_test.go cannot serve another package's tests. A seam or
// reference kernel that only its own package's tests need belongs in
// export_test.go or another _test.go file, and code no run needs is
// deleted. Constants are exempt, and so is a method that may satisfy an
// interface: one named like a method of an interface this module
// declares, or Error, String or Unwrap.
func TestNoTestOnlyExports(t *testing.T) {
	m := loadModule(t)
	used := map[types.Object]bool{}
	for _, obj := range m.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		used[obj] = true
	}
	interfaceMethods := map[string]bool{"Error": true, "String": true, "Unwrap": true}
	for _, files := range m.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, fld := range it.Methods.List {
						for _, name := range fld.Names {
							interfaceMethods[name.Name] = true
						}
					}
				}
				return true
			})
		}
	}
	var found []string
	for path, dir := range m.dirs {
		if !strings.HasPrefix(path, "ibasec/internal/") {
			continue
		}
		// check reports id unless a non-test file uses it or another
		// directory's tests name it by ref.
		check := func(id *ast.Ident, ref, what string) {
			if !id.IsExported() || used[m.info.Defs[id]] || m.namedByOtherTests(dir, ref) {
				return
			}
			found = append(found, fmt.Sprintf("%s: %s", m.fset.Position(id.Pos()), what))
		}
		for _, f := range m.files[dir] {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						check(d.Name, path+"."+d.Name.Name, "func "+d.Name.Name)
					} else if !interfaceMethods[d.Name.Name] {
						check(d.Name, "."+d.Name.Name, "method "+types.ExprString(d.Recv.List[0].Type)+"."+d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							check(s.Name, path+"."+s.Name.Name, "type "+s.Name.Name)
						case *ast.ValueSpec:
							if d.Tok == token.VAR {
								for _, id := range s.Names {
									check(id, path+"."+id.Name, "var "+id.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(found)
	for _, f := range found {
		t.Errorf("%s is used only by its own package's tests: delete it, or move it into export_test.go or another _test.go file", f)
	}
	if len(found) > 0 {
		t.Logf("%d test-only exports", len(found))
	}
}

// TestNoTestOnlyKnobs keeps options that no run sets out of the module:
// every exported field of a struct declared in a non-test file under
// internal/ that a non-test file reads must also be written by one — this
// module's (cmd/ and examples/ included) or bench/'s. A write is an
// assignment or ++/-- to the field (or to an element or field inside
// it), a composite-literal key, &x.F, a method call on x.F, or a copy
// into x.F. A field read but never written holds its zero value in every
// run, so the code that reads it is dead; it goes, with the field. As in
// TestNoTestOnlyExports, a field another directory's _test.go files
// name, by name, is a seam and stays.
func TestNoTestOnlyKnobs(t *testing.T) {
	m := loadModule(t)
	written := map[types.Object]bool{}
	// write marks every field selected along e: x.F.G[i] = v writes
	// both G and F.
	var write func(e ast.Expr)
	write = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if v, ok := m.info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
				written[v.Origin()] = true
			}
			write(x.X)
		case *ast.IndexExpr:
			write(x.X)
		case *ast.SliceExpr:
			write(x.X)
		case *ast.StarExpr:
			write(x.X)
		case *ast.ParenExpr:
			write(x.X)
		}
	}
	for _, files := range m.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						write(lhs)
					}
				case *ast.IncDecStmt:
					write(x.X)
				case *ast.RangeStmt:
					if x.Tok == token.ASSIGN {
						write(x.Key)
						if x.Value != nil {
							write(x.Value)
						}
					}
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						write(x.X)
					}
				case *ast.KeyValueExpr:
					if id, ok := x.Key.(*ast.Ident); ok {
						if v, ok := m.info.Uses[id].(*types.Var); ok && v.IsField() {
							written[v.Origin()] = true
						}
					}
				case *ast.CallExpr:
					if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
						if _, ok := m.info.Uses[sel.Sel].(*types.Func); ok {
							write(sel.X)
						}
					}
					if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "copy" && len(x.Args) > 0 {
						write(x.Args[0])
					}
				}
				return true
			})
		}
	}
	read := map[types.Object]bool{}
	for _, obj := range m.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			read[v.Origin()] = true
		}
	}
	var found []string
	for path, dir := range m.dirs {
		if !strings.HasPrefix(path, "ibasec/internal/") {
			continue
		}
		for _, f := range m.files[dir] {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, fld := range st.Fields.List {
					for _, id := range fld.Names {
						obj := m.info.Defs[id]
						if !id.IsExported() || !read[obj] || written[obj] || m.namedByOtherTests(dir, "."+id.Name) {
							continue
						}
						found = append(found, fmt.Sprintf("%s: field %s.%s", m.fset.Position(id.Pos()), ts.Name.Name, id.Name))
					}
				}
				return true
			})
		}
	}
	sort.Strings(found)
	for _, f := range found {
		t.Errorf("%s is read by non-test code but written only by tests, or by nothing: delete it and the code that reads it", f)
	}
	if len(found) > 0 {
		t.Logf("%d test-only knobs", len(found))
	}
}
