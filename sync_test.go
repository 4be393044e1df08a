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
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
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
	// "path.Name" for a selector on an imported package, ".Name" for
	// every selector and "Name" for every identifier. The first
	// argument of an Add call adds to a counter and reads nothing, so
	// it is recorded only as a selector.
	testRefs map[string]map[string]bool
	// testStrings holds the string literals of every _test.go file.
	testStrings map[string]bool
}

var (
	moduleOnce    sync.Once
	module        *modulePackages
	moduleLoadErr error
)

// loadModule type-checks the module once per test binary; the
// declaration gates share the result and only read it.
func loadModule(t *testing.T) *modulePackages {
	t.Helper()
	moduleOnce.Do(func() { module, moduleLoadErr = checkModule() })
	if moduleLoadErr != nil {
		t.Fatal(moduleLoadErr)
	}
	return module
}

func checkModule() (*modulePackages, error) {
	fset := token.NewFileSet()
	m := &modulePackages{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		info: types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		dirs:        map[string]string{},
		files:       map[string][]*ast.File{},
		pkgs:        map[string]*types.Package{},
		testRefs:    map[string]map[string]bool{},
		testStrings: map[string]bool{},
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
		return nil, err
	}
	for path := range m.dirs {
		if _, err := m.Import(path); err != nil {
			return nil, err
		}
	}
	return m, nil
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
	added := map[*ast.Ident]bool{} // the counter ids of Add calls
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if id := addedID(x); id != nil {
				added[id] = true
			}
		case *ast.SelectorExpr:
			refs["."+x.Sel.Name] = true
			if pkg, ok := x.X.(*ast.Ident); ok && imports[pkg.Name] != "" && !added[x.Sel] {
				refs[imports[pkg.Name]+"."+x.Sel.Name] = true
			}
		case *ast.Ident:
			if !added[x] {
				refs[x.Name] = true
			}
		case *ast.BasicLit:
			if s, err := strconv.Unquote(x.Value); err == nil && x.Kind == token.STRING {
				m.testStrings[s] = true
			}
		}
		return true
	})
}

// addedID returns the identifier naming the first argument of call, x
// or the Name of pkg.Name, when call is an Add method call.
func addedID(call *ast.CallExpr) *ast.Ident {
	if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Add" || len(call.Args) == 0 {
		return nil
	}
	switch a := call.Args[0].(type) {
	case *ast.Ident:
		return a
	case *ast.SelectorExpr:
		return a.Sel
	}
	return nil
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

// fieldWrites hands visit every field identifier a non-test file of
// the module or bench/ writes through, and whether that write is a
// store: an assignment or ++/-- to the field (or to an element or field
// inside it, so x.F.G[i] = v stores through both G and F), or a
// composite-literal key. The other writes, &x.F, a method call on x.F
// and a copy into x.F, may read the field too. decoded reports a write
// inside a decoder of the field's own package: a function or method
// whose name begins with Unmarshal, Parse or parse.
func (m *modulePackages) fieldWrites(visit func(id *ast.Ident, v *types.Var, store, decoded bool)) {
	// decoder is the package of the enclosing decoder, or nil outside one.
	var decoder *types.Package
	field := func(id *ast.Ident, v *types.Var, store bool) {
		v = v.Origin()
		visit(id, v, store, decoder != nil && decoder == v.Pkg())
	}
	// write visits every field selected along e.
	var write func(e ast.Expr, store bool)
	write = func(e ast.Expr, store bool) {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if v, ok := m.info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
				field(x.Sel, v, store)
			}
			write(x.X, store)
		case *ast.IndexExpr:
			write(x.X, store)
		case *ast.SliceExpr:
			write(x.X, store)
		case *ast.StarExpr:
			write(x.X, store)
		case *ast.ParenExpr:
			write(x.X, store)
		}
	}
	for _, files := range m.files {
		for _, f := range files {
			for _, decl := range f.Decls {
				decoder = nil
				if fd, ok := decl.(*ast.FuncDecl); ok {
					name, obj := fd.Name.Name, m.info.Defs[fd.Name]
					if obj != nil && (strings.HasPrefix(name, "Unmarshal") || strings.HasPrefix(name, "Parse") || strings.HasPrefix(name, "parse")) {
						decoder = obj.Pkg()
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range x.Lhs {
							write(lhs, true)
						}
					case *ast.IncDecStmt:
						write(x.X, true)
					case *ast.RangeStmt:
						if x.Tok == token.ASSIGN {
							write(x.Key, true)
							if x.Value != nil {
								write(x.Value, true)
							}
						}
					case *ast.UnaryExpr:
						if x.Op == token.AND {
							write(x.X, false)
						}
					case *ast.KeyValueExpr:
						if id, ok := x.Key.(*ast.Ident); ok {
							if v, ok := m.info.Uses[id].(*types.Var); ok && v.IsField() {
								field(id, v, true)
							}
						}
					case *ast.CallExpr:
						if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
							if _, ok := m.info.Uses[sel.Sel].(*types.Func); ok {
								write(sel.X, false)
							}
						}
						if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "copy" && len(x.Args) > 0 {
							write(x.Args[0], false)
						}
					}
					return true
				})
			}
		}
	}
}

// internalFields hands visit every named field of a struct type
// declared in a non-test file under internal/, with the type's name and
// its directory.
func (m *modulePackages) internalFields(visit func(dir string, ts *ast.TypeSpec, fld *ast.Field, id *ast.Ident)) {
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
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, fld := range st.Fields.List {
						for _, id := range fld.Names {
							visit(dir, ts, fld, id)
						}
					}
				}
				return true
			})
		}
	}
}

// TestNoTestOnlyKnobs keeps options that no run sets out of the module:
// every exported field of a struct declared in a non-test file under
// internal/ that a non-test file reads must also be written by one — this
// module's (cmd/ and examples/ included) or bench/'s (see fieldWrites;
// any write counts but a decoder's). A field read but never written
// holds its zero value in every run, so the code that reads it is dead;
// it goes, with the field. A decoder of the field's own package
// (Unmarshal*, Parse*, parse*) only copies back what an encoder wrote,
// so its write sets nothing unless the struct is a wire view that only
// decoders build (smpFrame, AuditChunk): no other code writes any of
// its fields, and a decoder's write counts. As in
// TestNoTestOnlyExports, a field another directory's _test.go files
// name, by name, is a seam and stays: that is why the check cannot see
// a decoded-only field whose name a test elsewhere selects on another
// type, as policy.Document.AltSources hid behind
// enforce.SwitchSnapshot.AltSources.
func TestNoTestOnlyKnobs(t *testing.T) {
	m := loadModule(t)
	written := map[types.Object]bool{} // by code other than a decoder of its package
	decoded := map[types.Object]bool{}
	m.fieldWrites(func(_ *ast.Ident, v *types.Var, _, decoder bool) {
		if decoder {
			decoded[v] = true
		} else {
			written[v] = true
		}
	})
	// built holds the struct types code other than a decoder writes a
	// field of; any other is a wire view.
	built := map[*ast.TypeSpec]bool{}
	m.internalFields(func(_ string, ts *ast.TypeSpec, _ *ast.Field, id *ast.Ident) {
		if written[m.info.Defs[id]] {
			built[ts] = true
		}
	})
	read := map[types.Object]bool{}
	for _, obj := range m.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			read[v.Origin()] = true
		}
	}
	var found []string
	m.internalFields(func(dir string, ts *ast.TypeSpec, _ *ast.Field, id *ast.Ident) {
		obj := m.info.Defs[id]
		if !id.IsExported() || !read[obj] || written[obj] || decoded[obj] && !built[ts] || m.namedByOtherTests(dir, "."+id.Name) {
			return
		}
		found = append(found, fmt.Sprintf("%s: field %s.%s", m.fset.Position(id.Pos()), ts.Name.Name, id.Name))
	})
	sort.Strings(found)
	for _, f := range found {
		t.Errorf("%s is read by non-test code but written only by tests, by a decoder, or by nothing: delete it and the code that reads it", f)
	}
	if len(found) > 0 {
		t.Logf("%d test-only knobs", len(found))
	}
}

// TestNoWriteOnlyState keeps state that nothing reads out of the
// module: every field of a struct declared in a non-test file under
// internal/ that a non-test file stores to (an assignment, ++/-- or a
// composite-literal key; see fieldWrites) must also be read. Any other
// use of the field by a non-test file of this module or bench/ is a
// read, and so is a selector of that name in a _test.go file that can
// name it: any, for an exported field, and its own package's for an
// unexported one. A field only ever stored to costs its writes and its
// bytes and changes no output; it goes, with the code that only
// computes what it holds. Three kinds of field are read where no
// identifier shows it and are exempt: a tagged field (csv and json read
// it by reflection), a field whose name a string literal spells in a
// file that imports reflect (bench's digest reads Results by name), and
// a field of a struct type that is a map key or an operand of == or !=,
// since equality reads every field.
func TestNoWriteOnlyState(t *testing.T) {
	m := loadModule(t)
	stored := map[*ast.Ident]bool{}
	written := map[types.Object]bool{}
	m.fieldWrites(func(id *ast.Ident, v *types.Var, store, _ bool) {
		if store {
			stored[id] = true
			written[v] = true
		}
	})
	read := map[types.Object]bool{}
	for id, obj := range m.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !stored[id] {
			read[v.Origin()] = true
		}
	}
	// compared holds the struct types whose every field equality reads.
	compared := map[types.Type]bool{}
	compare := func(typ types.Type) {
		if _, ok := typ.Underlying().(*types.Struct); ok {
			compared[typ] = true
		}
	}
	for e, tv := range m.info.Types {
		if mt, ok := tv.Type.(*types.Map); ok && tv.IsType() {
			compare(mt.Key())
		}
		if b, ok := e.(*ast.BinaryExpr); ok && (b.Op == token.EQL || b.Op == token.NEQ) {
			compare(m.info.Types[b.X].Type)
		}
	}
	// reflected holds the names that string literals spell in files
	// that import reflect, which may read a field by its name.
	reflected := map[string]bool{}
	for _, files := range m.files {
		for _, f := range files {
			if !importsReflect(f) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil {
						reflected[s] = true
					}
				}
				return true
			})
		}
	}
	var found []string
	m.internalFields(func(dir string, ts *ast.TypeSpec, fld *ast.Field, id *ast.Ident) {
		obj := m.info.Defs[id]
		if !written[obj] || read[obj] || fld.Tag != nil || reflected[id.Name] || compared[m.info.Defs[ts.Name].Type()] {
			return
		}
		// Only the package's own tests can name an unexported field.
		if m.testRefs[dir]["."+id.Name] || id.IsExported() && m.namedByOtherTests(dir, "."+id.Name) {
			return
		}
		found = append(found, fmt.Sprintf("%s: field %s.%s", m.fset.Position(id.Pos()), ts.Name.Name, id.Name))
	})
	sort.Strings(found)
	for _, f := range found {
		t.Errorf("%s is written by non-test code but read by nothing: delete it and the code that only fills it", f)
	}
	if len(found) > 0 {
		t.Logf("%d write-only fields", len(found))
	}
}

func importsReflect(f *ast.File) bool {
	for _, imp := range f.Imports {
		if imp.Path.Value == `"reflect"` {
			return true
		}
	}
	return false
}

// TestNoWriteOnlyCounters keeps counters that nothing reads out of the
// module (DESIGN §8, Counters): a cell ships with the code that reads
// it. A counter id, a constant of the ID type of a metrics.Set[ID]
// field, fails when all of these hold:
//   - non-test code (the module's, bench/'s and examples/') uses it only
//     as the first argument of Add and as the key of its name in the
//     set's metrics.Table;
//   - no _test.go file names it, other than as the first argument of
//     an Add;
//   - its name is a word of no string literal but the counter tables'
//     entries, test files included, so no Get and no check of printed
//     output reads it (another table's cell of the same name is another
//     counter, and reads nothing of this one);
//   - no non-test code reads its whole set: uses a metrics.Set[ID]
//     other than through Add, Value, Bind or a Get of a literal name,
//     as String and Names do.
//
// Such a cell costs its add and its bytes and changes no output; it
// goes, with its id, its name and the code that only fed it.
func TestNoWriteOnlyCounters(t *testing.T) {
	m := loadModule(t)
	// idType returns ID when typ is metrics.Set[ID], or a pointer to
	// one, for a declared ID type, and nil otherwise.
	idType := func(typ types.Type) types.Type {
		if p, ok := typ.(*types.Pointer); ok {
			typ = p.Elem()
		}
		if n, ok := typ.(*types.Named); ok && n.Obj().Pkg() != nil &&
			n.Obj().Pkg().Path() == "ibasec/internal/metrics" && n.Obj().Name() == "Set" && n.TypeArgs().Len() == 1 {
			if id, ok := n.TypeArgs().At(0).(*types.Named); ok {
				return id
			}
		}
		return nil
	}
	idTypes := map[types.Type]bool{}
	for _, tv := range m.info.Types {
		if id := idType(tv.Type); id != nil {
			idTypes[id] = true
		}
	}
	counter := func(obj types.Object) (*types.Const, bool) {
		c, ok := obj.(*types.Const)
		return c, ok && idTypes[c.Type()]
	}
	added := map[*ast.Ident]bool{}            // ids passed as Add's first argument
	entries := map[*ast.Ident]bool{}          // ids keying a table's name
	entry := map[*types.Const]*ast.BasicLit{} // id → its name in the table
	consumed := map[ast.Expr]bool{}           // sets read by Add, Value, Bind or Get(literal)
	spellings := map[string][]*ast.BasicLit{} // string literal → where (nil: a test)
	for _, files := range m.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					sel, ok := x.Fun.(*ast.SelectorExpr)
					if !ok || idType(m.info.Types[sel.X].Type) == nil {
						break
					}
					switch sel.Sel.Name {
					case "Add":
						added[addedID(x)] = true
						consumed[sel.X] = true
					case "Value", "Bind":
						consumed[sel.X] = true
					case "Get":
						if lit, ok := x.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
							consumed[sel.X] = true
						}
					}
				case *ast.KeyValueExpr:
					key, _ := x.Key.(*ast.Ident)
					lit, _ := x.Value.(*ast.BasicLit)
					if key == nil || lit == nil || lit.Kind != token.STRING {
						break
					}
					if c, ok := counter(m.info.Uses[key]); ok {
						entries[key] = true
						entry[c] = lit
					}
				case *ast.BasicLit:
					if s, err := strconv.Unquote(x.Value); err == nil && x.Kind == token.STRING {
						spellings[s] = append(spellings[s], x)
					}
				}
				return true
			})
		}
	}
	for s := range m.testStrings {
		spellings[s] = append(spellings[s], nil)
	}
	// printed holds the id types whose whole set non-test code reads.
	printed := map[types.Type]bool{}
	for e, tv := range m.info.Types {
		if id := idType(tv.Type); id != nil && !tv.IsType() && !consumed[e] {
			printed[id] = true
		}
	}
	tableNames := map[*ast.BasicLit]bool{}
	for _, lit := range entry {
		tableNames[lit] = true
	}
	read := map[*types.Const]bool{}
	for id, obj := range m.info.Uses {
		if c, ok := counter(obj); ok && !added[id] && !entries[id] {
			read[c] = true
		}
	}
	var found []string
	for id, obj := range m.info.Defs {
		c, ok := counter(obj)
		if !ok || read[c] || printed[c.Type()] || entry[c] == nil {
			continue
		}
		name, _ := strconv.Unquote(entry[c].Value)
		if spelled(spellings, name, tableNames) {
			continue
		}
		path := c.Pkg().Path()
		dir := m.dirs[path]
		if m.testRefs[dir][c.Name()] || m.testRefs[dir][path+"."+c.Name()] || m.namedByOtherTests(dir, path+"."+c.Name()) {
			continue
		}
		found = append(found, fmt.Sprintf("%s: counter %s (%q)", m.fset.Position(id.Pos()), c.Name(), name))
	}
	sort.Strings(found)
	for _, f := range found {
		t.Errorf("%s is only ever added to: delete it with its name and its Add calls, or read it", f)
	}
	if len(found) > 0 {
		t.Logf("%d write-only counters", len(found))
	}
}

// spelled reports whether name is a word of a string literal that
// appears somewhere other than as a counter table's entry (skip): a run
// of letters, digits and underscores that no such character extends.
func spelled(spellings map[string][]*ast.BasicLit, name string, skip map[*ast.BasicLit]bool) bool {
	word := func(b byte) bool {
		return b == '_' || '0' <= b && b <= '9' || 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z'
	}
	for s, at := range spellings {
		if !slices.ContainsFunc(at, func(lit *ast.BasicLit) bool { return !skip[lit] }) {
			continue
		}
		for i := 0; ; i++ {
			j := strings.Index(s[i:], name)
			if j < 0 {
				break
			}
			i += j
			if end := i + len(name); (i == 0 || !word(s[i-1])) && (end == len(s) || !word(s[end])) {
				return true
			}
		}
	}
	return false
}
