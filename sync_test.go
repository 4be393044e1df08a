package ibasec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || filepath.Dir(path) == runnerDir {
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
