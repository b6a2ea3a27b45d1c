package cbi_bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// gzipCodecFile is the one file allowed to construct gzip writers and
// readers: the pooled codec every other package goes through.
const gzipCodecFile = "internal/report/gzip.go"

// TestGzipOnlyInCodec keeps the compression policy in one place: one
// level, pooled writers and readers. A non-test file that calls
// gzip.NewWriter, gzip.NewWriterLevel or gzip.NewReader directly brings
// back a per-call allocation at a level of its own choosing, so it
// fails here and is pointed at report.Gzip / report.Gunzip. Tests are
// exempt — they build default-level fixtures on purpose.
func TestGzipOnlyInCodec(t *testing.T) {
	banned := map[string]bool{"NewWriter": true, "NewWriterLevel": true, "NewReader": true}
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Hidden directories hold build output and VCS state.
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		path = filepath.ToSlash(path)
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || path == gzipCodecFile {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		checked++
		// The name compress/gzip is imported under in this file, if it is.
		pkg := ""
		for _, imp := range file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "compress/gzip" {
				pkg = "gzip"
				if imp.Name != nil {
					pkg = imp.Name.Name
				}
			}
		}
		if pkg == "" {
			return nil
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && banned[sel.Sel.Name] {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg {
					t.Errorf("%s: calls gzip.%s; use report.Gzip / report.Gunzip (%s) so the level and the pools stay in one place",
						fset.Position(call.Pos()), sel.Sel.Name, gzipCodecFile)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 50 {
		t.Fatalf("walked only %d Go files; is the test running at the repository root?", checked)
	}
}
