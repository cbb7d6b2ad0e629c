// Command funclen fails when a function in a non-test Go file of the
// directories it is given is longer than 100 lines:
//
//	go run ./scripts/funclen ./internal/stage
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

const maxLines = 100

func main() {
	fset, long := token.NewFileSet(), 0
	for _, dir := range os.Args[1:] {
		files, _ := filepath.Glob(filepath.Join(dir, "*.go")) // the pattern is well-formed
		if len(files) == 0 {
			fail(fmt.Errorf("%s: no Go files", dir))
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				fail(err)
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok {
					from, to := fset.Position(fn.Pos()), fset.Position(fn.End())
					if n := to.Line - from.Line + 1; n > maxLines {
						fmt.Printf("%s: %s is %d lines, over %d\n", from, fn.Name.Name, n, maxLines)
						long++
					}
				}
			}
		}
	}
	if long > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "funclen:", err)
	os.Exit(2)
}
