// Command lintdoc enforces godoc coverage on the packages whose API
// other layers (and operators reading the docs tree) depend on. For
// each audited package it requires a package comment and a doc
// comment on every exported top-level symbol — funcs, methods, types,
// and each exported name in const/var blocks (a comment on the
// enclosing block or group satisfies its members). Test files are
// skipped. One line per finding, exit 1 on any.
//
// CI runs it in the docs job; run it locally from the repo root:
//
//	go run ./cmd/lintdoc
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
)

// auditedPackages are the serving/observability layers and the models'
// shared testbench the docs tree documents; their godoc is part of the
// product surface.
var auditedPackages = []string{
	"internal/agg",
	"internal/lru",
	"internal/obs",
	"internal/platform",
	"internal/sched",
	"internal/service",
	"internal/shard",
	"internal/store",
	"internal/sweep",
}

func main() {
	flag.Parse()
	dirs := flag.Args()
	if len(dirs) == 0 {
		dirs = auditedPackages
	}

	var findings []string
	for _, dir := range dirs {
		findings = append(findings, auditDir(dir)...)
	}
	sort.Strings(findings)
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, "lintdoc: "+f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "lintdoc: %d undocumented exported symbol(s)\n", len(findings))
		os.Exit(1)
	}
	fmt.Printf("lintdoc: %d package(s) fully documented\n", len(dirs))
}

// auditDir parses one package directory and returns findings.
func auditDir(dir string) []string {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", dir, err)}
	}

	var findings []string
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, file := range pkg.Files {
			if file.Doc != nil {
				hasPkgDoc = true
			}
			findings = append(findings, auditFile(fset, file)...)
		}
		if !hasPkgDoc {
			findings = append(findings, fmt.Sprintf("%s: package %s has no package comment", dir, pkg.Name))
		}
	}
	return findings
}

// auditFile walks one file's top-level declarations.
func auditFile(fset *token.FileSet, file *ast.File) []string {
	var findings []string
	undocumented := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		findings = append(findings, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}

	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || receiverUnexported(d) {
				continue
			}
			if d.Doc == nil {
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				undocumented(d.Pos(), kind, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
						undocumented(sp.Pos(), "type", sp.Name.Name)
					}
				case *ast.ValueSpec:
					// A doc comment on the block, the spec, or a
					// trailing line comment all count — grouped
					// constants routinely share the block's doc.
					if d.Doc != nil || sp.Doc != nil || sp.Comment != nil {
						continue
					}
					for _, name := range sp.Names {
						if name.IsExported() {
							kind := "var"
							if d.Tok == token.CONST {
								kind = "const"
							}
							undocumented(name.Pos(), kind, name.Name)
						}
					}
				}
			}
		}
	}
	return findings
}

// receiverUnexported reports whether a method hangs off an unexported
// type — its docs are the type's business, not the public API's.
func receiverUnexported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return false
	}
	t := d.Recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr: // generic receiver
			t = v.X
		case *ast.Ident:
			return !v.IsExported()
		default:
			return false
		}
	}
}
