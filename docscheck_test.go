package optibfs

// Documentation discipline check: every exported top-level identifier
// in the library packages must carry a doc comment. Runs as part of
// the normal test suite so documentation debt fails CI like any other
// regression.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func TestAllExportedIdentifiersDocumented(t *testing.T) {
	var missing []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Library packages only: commands and examples are package
			// main (no exported API surface).
			if d.Name() == "cmd" || d.Name() == "examples" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			switch dd := decl.(type) {
			case *ast.FuncDecl:
				if !dd.Name.IsExported() {
					continue
				}
				if dd.Recv != nil && !receiverExported(dd.Recv) {
					continue
				}
				if dd.Doc == nil {
					missing = append(missing, pos(fset, dd.Pos())+" func "+dd.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range dd.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() && dd.Doc == nil && sp.Doc == nil && sp.Comment == nil {
							missing = append(missing, pos(fset, sp.Pos())+" type "+sp.Name.Name)
						}
					case *ast.ValueSpec:
						for _, name := range sp.Names {
							if name.IsExported() && dd.Doc == nil && sp.Doc == nil && sp.Comment == nil {
								missing = append(missing, pos(fset, sp.Pos())+" value "+name.Name)
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) > 0 {
		t.Fatalf("%d exported identifiers lack doc comments:\n  %s",
			len(missing), strings.Join(missing, "\n  "))
	}
}

// TestReadmeArchitectureListsInternalPackages keeps README's
// architecture block in step with the tree: the entries under its
// "internal/" line must name exactly the directories under internal/,
// so a package added without a line, or a stale line left behind by a
// removed package, fails here.
func TestReadmeArchitectureListsInternalPackages(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, arch, ok := strings.Cut(string(readme), "\n## Architecture\n")
	if !ok {
		t.Fatal("README has no Architecture section")
	}
	_, block, _ := strings.Cut(arch, "```\n")
	block, _, _ = strings.Cut(block, "```")
	var listed []string
	inInternal := false
	for _, line := range strings.Split(block, "\n") {
		switch {
		case strings.HasPrefix(line, "internal/"):
			inInternal = true
		case !strings.HasPrefix(line, " "):
			inInternal = false
		case inInternal && strings.HasPrefix(line, "  ") && !strings.HasPrefix(line, "   "):
			name, _, _ := strings.Cut(strings.TrimSpace(line), " ")
			listed = append(listed, strings.TrimSuffix(name, "/"))
		}
	}
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	sort.Strings(listed)
	if strings.Join(listed, " ") != strings.Join(dirs, " ") {
		t.Fatalf("README architecture lists internal/ packages\n  %v\nbut the tree has\n  %v", listed, dirs)
	}
}

func receiverExported(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	typ := recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr:
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

func pos(fset *token.FileSet, p token.Pos) string {
	position := fset.Position(p)
	return position.Filename + ":" + strconv.Itoa(position.Line)
}
