package clockrlc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestOneEntryPointPerOperation guards against the regrowth of second
// ways to do one job: no package under internal/ may declare both X
// and XCtx on the same receiver (callers thread the context instead),
// and internal/obs may export no span starter besides StartCtx (spans
// parent through the context, never through a shared stack).
func TestOneEntryPointPerOperation(t *testing.T) {
	fset := token.NewFileSet()
	// declared maps "dir receiver" to the function names declared there.
	declared := map[string]map[string]bool{}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			key := dir + " " + receiverName(fn)
			if declared[key] == nil {
				declared[key] = map[string]bool{}
			}
			declared[key][fn.Name.Name] = true
			if dir == filepath.Join("internal", "obs") && fn.Name.IsExported() &&
				startsSpan(fn) && fn.Name.Name != "StartCtx" {
				t.Errorf("%s: obs exports span starter %s; StartCtx is the only one", fset.Position(fn.Pos()), fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var twins []string
	for key, names := range declared {
		for name := range names {
			if base, ok := strings.CutSuffix(name, "Ctx"); ok && base != "" && names[base] {
				twins = append(twins, key+": "+base+" and "+name)
			}
		}
	}
	sort.Strings(twins)
	for _, tw := range twins {
		t.Errorf("ctx-less twin declared in %s", tw)
	}
}

// receiverName returns the receiver's type name ("" for a function).
func receiverName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// startsSpan reports whether fn takes a span name and returns a Span —
// the shape of every span starter (Start, Span.Child, StartCtx).
func startsSpan(fn *ast.FuncDecl) bool {
	named, returnsSpan := false, false
	for _, p := range fn.Type.Params.List {
		if id, ok := p.Type.(*ast.Ident); ok && id.Name == "string" {
			named = true
		}
	}
	if fn.Type.Results != nil {
		for _, r := range fn.Type.Results.List {
			if id, ok := r.Type.(*ast.Ident); ok && id.Name == "Span" {
				returnsSpan = true
			}
		}
	}
	return named && returnsSpan
}
