package ecsdns

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

func TestExperimentsListed(t *testing.T) {
	ids := Experiments()
	if len(ids) != 20 {
		t.Fatalf("experiments = %v", ids)
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", DefaultConfig()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunOne(t *testing.T) {
	rep, err := Run("table2", Config{Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "table2" || len(rep.Metrics) == 0 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestRunAllSmallScale(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("RunAll is exercised per-experiment in internal/core")
	}
	reps, err := RunAll(Config{Scale: 0.02, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(Experiments()) {
		t.Fatalf("got %d reports", len(reps))
	}
}

// TestUnsafeHomes pins where the product may step outside Go's memory
// and type safety. unsafe is imported by internal/udpio (the mmsghdr and
// sockaddr layouts of its system calls) and internal/dnswire (a borrowed
// name is a view of its Message's arena, one conversion) and nowhere
// else; syscall by internal/udpio, and by the daemons only for
// syscall.SIGTERM. Every non-test Go file outside bench/, which is a
// module of its own, is parsed.
func TestUnsafeHomes(t *testing.T) {
	homes := map[string][]string{
		"unsafe":  {"internal/udpio", "internal/dnswire"},
		"syscall": {"internal/udpio", "cmd/authdns", "cmd/recursor"},
	}
	sigtermOnly := map[string]bool{"cmd/authdns": true, "cmd/recursor": true}
	fset := token.NewFileSet()
	seen := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, imp := range f.Imports {
			pkg, _ := strconv.Unquote(imp.Path.Value)
			allowed, guarded := homes[pkg]
			if !guarded {
				continue
			}
			seen[pkg+" "+dir] = true
			ok := false
			for _, home := range allowed {
				ok = ok || dir == home
			}
			if !ok {
				t.Errorf("%s imports %s, which only %s may", path, pkg, strings.Join(allowed, ", "))
			}
			if pkg == "syscall" && sigtermOnly[dir] {
				ast.Inspect(f, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == "syscall" && sel.Sel.Name != "SIGTERM" {
							t.Errorf("%s: syscall.%s, where the daemons use syscall only for SIGTERM", fset.Position(sel.Pos()), sel.Sel.Name)
						}
					}
					return true
				})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The walk must have found the homes it allows, or it looked in the
	// wrong place.
	for pkg, allowed := range homes {
		for _, home := range allowed {
			if !seen[pkg+" "+home] {
				t.Errorf("no file in %s imports %s: the walk missed it, or the home is gone and goes from this list", home, pkg)
			}
		}
	}
}
