// Package archtest states design rules of this repository as tests over
// its source. Each rule confines one construct to the one directory
// that owns it; the check parses every Go file in the tree with the
// standard library alone, so it runs offline as part of go test.
package archtest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// rule confines a construct to one directory of the tree.
type rule struct {
	name string
	// home is the only directory, slash-separated from the repository
	// root, whose files may contain the construct.
	home string
	// tests holds _test.go files to the rule as well.
	tests bool
	hits  func(f *ast.File) bool
	// violation is a file that breaks the rule anywhere outside home:
	// the rule's own negative test.
	violation string
}

var rules = []rule{
	{
		name:      "recency-list",
		home:      "internal/lru",
		tests:     true,
		hits:      imports("container/list"),
		violation: `package service; import "container/list"; var recency = list.New()`,
	},
	{
		name: "platform-assembly",
		home: "internal/platform",
		hits: calls("repro/internal/ddr.NewEngine", "repro/internal/bi.NewLink",
			"repro/internal/memmodel.New", "repro/internal/stats.NewBus"),
		violation: `package rtl; import mm "repro/internal/memmodel"; var mem = mm.New()`,
	},
	{
		name:      "transaction-account",
		home:      "internal/platform",
		hits:      callsMethod("RecordTxn"),
		violation: `package rtl; func done(m *stats.Master) { m.RecordTxn(false, 4, 16, 1, 3, false) }`,
	},
	{
		name:      "arbitration-pipeline",
		home:      "internal/platform",
		hits:      calls("repro/internal/arb.DefaultWith"),
		violation: `package rtl; import "repro/internal/arb"; var comb = arb.DefaultWith(arb.Enabled{})`,
	},
}

// breaks reports whether file f, at slash path rel from the repository
// root, breaks the rule.
func (r rule) breaks(rel string, f *ast.File) bool {
	if strings.HasSuffix(rel, "_test.go") && !r.tests || strings.HasPrefix(rel, r.home+"/") {
		return false
	}
	return r.hits(f)
}

// imports matches a file that imports the package at path p.
func imports(p string) func(*ast.File) bool {
	return func(f *ast.File) bool {
		for _, imp := range f.Imports {
			if v, _ := strconv.Unquote(imp.Path.Value); v == p {
				return true
			}
		}
		return false
	}
}

// calls matches a file that calls any of the named package-level
// functions, each given as "import/path.Func", through whatever name
// the file imports the package under.
func calls(funcs ...string) func(*ast.File) bool {
	return func(f *ast.File) bool {
		local := map[string]string{} // local package name -> import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = p
		}
		return anyCall(f, func(sel *ast.SelectorExpr) bool {
			x, ok := sel.X.(*ast.Ident)
			if !ok || local[x.Name] == "" {
				return false
			}
			for _, fn := range funcs {
				if fn == local[x.Name]+"."+sel.Sel.Name {
					return true
				}
			}
			return false
		})
	}
}

// callsMethod matches a file that calls a method or function named
// name through a selector, on any receiver.
func callsMethod(name string) func(*ast.File) bool {
	return func(f *ast.File) bool {
		return anyCall(f, func(sel *ast.SelectorExpr) bool { return sel.Sel.Name == name })
	}
}

// anyCall reports whether some call in f goes through a selector that
// match accepts.
func anyCall(f *ast.File, match func(*ast.SelectorExpr) bool) bool {
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && match(sel) {
				found = true
			}
		}
		return !found
	})
	return found
}

// TestRules holds every Go file in the repository to every rule.
func TestRules(t *testing.T) {
	const root = "../.."
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		files[filepath.ToSlash(rel)] = f
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if files["internal/platform/platform.go"] == nil {
		t.Fatalf("walked %d files from %s without finding internal/platform", len(files), root)
	}
	for _, r := range rules {
		for rel, f := range files {
			if r.breaks(rel, f) {
				t.Errorf("%s: %s is allowed only under %s", rel, r.name, r.home)
			}
		}
	}
}

// TestRulesCatchViolations shows each rule failing on its injected
// violation outside its home, and accepting the same file at home.
func TestRulesCatchViolations(t *testing.T) {
	for _, r := range rules {
		f, err := parser.ParseFile(token.NewFileSet(), "violation.go", r.violation, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if !r.breaks("internal/service/violation.go", f) {
			t.Errorf("%s: missed its violation outside %s", r.name, r.home)
		}
		if r.breaks(r.home+"/violation.go", f) {
			t.Errorf("%s: flagged its own home %s", r.name, r.home)
		}
	}
}
