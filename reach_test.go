package scalarfield

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// oraclePkg is the test-only reference package: only _test.go files
// import it, so it neither declares linked code nor links any.
const oraclePkg = "repro/internal/oracle"

// testOnlyExports names the exported top-level functions under
// internal/ that no binary links and that stay exported on purpose:
// helpers that tests of more than one package share. Each entry says
// which tests need it.
var testOnlyExports = map[string]string{
	"measures.TotalTriangles": "datasets TestTriadicBAHasTriangles and the measures_test allocation gates count triangles with it",
}

// TestInternalExportsAreLinked fails when an exported top-level
// function declared in a non-test file under internal/ is named by no
// non-test file of the module or of perfbench. Code that only tests
// reach belongs in test code; a helper that several packages' tests
// share and that stays exported goes in testOnlyExports.
func TestInternalExportsAreLinked(t *testing.T) {
	type fn struct{ pkg, name string }
	declared := map[fn]string{}
	used := map[fn]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		pkg := path.Join("repro", filepath.ToSlash(filepath.Dir(p)))
		if pkg == oraclePkg {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imports := map[string]string{} // local name -> import path
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			local := path.Base(ip)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = ip
		}
		decls := map[*ast.Ident]bool{}
		for _, dcl := range f.Decls {
			if fd, ok := dcl.(*ast.FuncDecl); ok {
				decls[fd.Name] = true
				if fd.Recv == nil && fd.Name.IsExported() && strings.HasPrefix(pkg, "repro/internal/") {
					declared[fn{pkg, fd.Name.Name}] = fset.Position(fd.Pos()).String()
				}
			}
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				// pkg.Name names an imported function; x.Name (a field or
				// method) names nothing at package level.
				if id, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[id.Name]; ok {
						used[fn{ip, n.Sel.Name}] = true
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if !decls[n] {
					used[fn{pkg, n.Name}] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unlinked []string
	for f, pos := range declared {
		key := strings.TrimPrefix(f.pkg, "repro/internal/") + "." + f.name
		if _, listed := testOnlyExports[key]; !used[f] && !listed {
			unlinked = append(unlinked, key+" at "+pos)
		}
	}
	slices.Sort(unlinked)
	for _, u := range unlinked {
		t.Errorf("%s: no non-test file names it; move it to test code or delete it", u)
	}
	for key := range testOnlyExports {
		pkg, name, _ := strings.Cut(key, ".")
		if _, ok := declared[fn{"repro/internal/" + pkg, name}]; !ok {
			t.Errorf("testOnlyExports lists %s, which no non-test file under internal/ declares", key)
		}
	}
}
