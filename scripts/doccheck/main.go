// Command doccheck is the documentation linter behind
// scripts/doccheck.sh: it parses the named package directories and
// fails when an exported symbol — package-level func, method, type,
// var, or const — has no doc comment, or when a package has no package
// comment at all. CI runs it over the engine's core packages so the
// godoc surface cannot silently rot. An argument ending in ".md" is a
// Markdown file instead: it fails when it cites a Benchmark* function,
// a cmd/<x> directory or an internal/<x> directory that the tree under
// the working directory does not hold.
//
// Usage:
//
//	doccheck <pkgdir|file.md> [...]
//
// Exits 0 when every exported symbol is documented and every citation
// resolves, 1 otherwise (printing one "file:line: what" diagnostic per
// finding), 2 on usage, read or parse errors.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doccheck <pkgdir|file.md> [...]")
		os.Exit(2)
	}
	bad := 0
	for _, arg := range os.Args[1:] {
		check := checkDir
		if strings.HasSuffix(arg, ".md") {
			check = func(md string) ([]string, error) { return checkRefs(".", md) }
		}
		findings, err := check(arg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			os.Exit(2)
		}
		for _, f := range findings {
			fmt.Println(f)
		}
		bad += len(findings)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d finding(s)\n", bad)
		os.Exit(1)
	}
}

var (
	// A cited directory: cmd/<x> or internal/<x> at the start of a
	// path, after "./", or after the module name. The prefix keeps
	// foreign import paths (golang.org/x/vuln/cmd/govulncheck) out.
	dirRef = regexp.MustCompile(`(?:^|[^\w/.-]|\./|knnpc/)((?:cmd|internal)/[a-z0-9_]+)`)
	// A cited benchmark function; a /sub-benchmark suffix is not part
	// of the identifier.
	benchRef  = regexp.MustCompile(`\bBenchmark[A-Z]\w*`)
	benchDecl = regexp.MustCompile(`(?m)^func (Benchmark[A-Z]\w*)\(`)
)

// checkRefs returns one diagnostic per line of the Markdown file at
// path that cites a directory or benchmark function missing under root.
func checkRefs(root, path string) ([]string, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	declared, err := declaredBenchmarks(root)
	if err != nil {
		return nil, err
	}
	var findings []string
	for i, line := range strings.Split(string(src), "\n") {
		for _, m := range dirRef.FindAllStringSubmatch(line, -1) {
			if fi, err := os.Stat(filepath.Join(root, m[1])); err != nil || !fi.IsDir() {
				findings = append(findings, fmt.Sprintf("%s:%d: cites %s, which is not a directory in the tree", path, i+1, m[1]))
			}
		}
		for _, name := range benchRef.FindAllString(line, -1) {
			if !declared[name] {
				findings = append(findings, fmt.Sprintf("%s:%d: cites %s, which no _test.go file declares", path, i+1, name))
			}
		}
	}
	return findings, nil
}

// declaredBenchmarks collects every top-level Benchmark* function
// declared in a _test.go file under root.
func declaredBenchmarks(root string) (map[string]bool, error) {
	declared := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range benchDecl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return err
	})
	return declared, err
}

// checkDir lints one package directory (tests excluded — their helpers
// are not API) and returns one diagnostic per undocumented symbol.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var findings []string
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, file := range pkg.Files {
			if file.Doc != nil {
				hasPkgDoc = true
			}
			findings = append(findings, checkFile(fset, file)...)
		}
		if !hasPkgDoc {
			findings = append(findings, fmt.Sprintf("%s: package %s has no package comment", dir, pkg.Name))
		}
	}
	return findings, nil
}

// checkFile walks one file's top-level declarations.
func checkFile(fset *token.FileSet, file *ast.File) []string {
	var findings []string
	report := func(pos token.Pos, what string) {
		findings = append(findings, fmt.Sprintf("%s: %s", fset.Position(pos), what))
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			name := d.Name.Name
			if d.Recv != nil {
				recv := receiverType(d.Recv)
				if recv != "" && !ast.IsExported(recv) {
					continue // method on an unexported type: not API
				}
				name = recv + "." + name
			}
			report(d.Pos(), name+" is exported but undocumented")
		case *ast.GenDecl:
			// A doc comment on the grouped declaration covers every
			// spec inside it — the normal idiom for const/var blocks.
			if d.Doc != nil {
				continue
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
						report(s.Pos(), "type "+s.Name.Name+" is exported but undocumented")
					}
				case *ast.ValueSpec:
					if s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							report(n.Pos(), n.Name+" is exported but undocumented")
						}
					}
				}
			}
		}
	}
	return findings
}

// receiverType unwraps a method receiver to its named type.
func receiverType(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if gen, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		t = gen.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
