package rtcomp_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestEveryFlagHasAReader walks cmd/*/*.go for every flag.X("name", ...)
// registration and requires "-name" to occur somewhere a person or a machine
// reads it: the three top-level documents, the CI workflow, the verify notes
// or a test. A flag nothing mentions is a knob nobody can be shown to turn.
func TestEveryFlagHasAReader(t *testing.T) {
	var readers strings.Builder
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md",
		".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		readers.Write(data)
		readers.WriteByte('\n')
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		data, err := os.ReadFile(path)
		readers.Write(data)
		readers.WriteByte('\n')
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	text := readers.String()

	files, err := filepath.Glob("cmd/*/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no command sources found: %v", err)
	}
	registered := 0
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			registered++
			mention := regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(name) + `($|[^\w-])`)
			if !mention.MatchString(text) {
				t.Errorf("%s: flag -%s is mentioned in no document, CI line or test", file, name)
			}
			return true
		})
	}
	t.Logf("%d flags registered across cmd/", registered)
}
