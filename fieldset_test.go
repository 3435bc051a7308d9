package ecsdns

import (
	"encoding/json"
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// unsetAllowed lists the exported fields under internal/ that the
// product reads and never sets and that stay anyway, each with its
// reason. An entry that the product sets again, or whose field is no
// longer read or is gone, fails TestEveryFieldSet until it goes from this
// list, so the list only shrinks.
var unsetAllowed = map[string]string{
	"internal/authority.Config.Strict":  "a check on outside input, kept by DESIGN.md §5; only its test turns it on",
	"internal/netem.Network.WireTap":    "a test hook: tests tap every simulated exchange with it",
	"internal/dnsserver.Server.Now":     "a test hook: the overload and RRL tests refill tokens from a virtual clock, so shed and slip counts are exact",
	"internal/scanner.Scan.Seed":        "a test hook: the scanner's replay and chaos tests fix probe IDs with it; the product's IDs come from entropy and reach no output",
	"internal/dnsclient.Client.Retries": "bench/layers sets it (NoRetries, in replica.go), as do dnsclient's tests; ROADMAP item 1(d) cuts it, with NoRetries, once replica.go is gone",

	"internal/scanner.Engine.Concurrency": "bench/layers sets it; ROADMAP item 1(d) removes the Engine's worker pool",
	"internal/scanner.Engine.Progress":    "bench/layers sets it; ROADMAP item 1(d) removes it with the pool",
}

// TestEveryFieldSet holds the product to the knobs it turns. It
// type-checks every non-test file the current build selects (what `go
// list` reports, so bench/, a module of its own, is outside) and fails on
// an exported field of an exported struct declared under internal/ that
// a non-test file reads while no non-test file sets it: such a field is
// always its zero value, and the code that reads it is a branch nothing
// takes. A field is set by a keyed or an unkeyed composite literal, an
// assignment, an increment or decrement, or taking its address; fields
// are told apart by the struct that declares them, not by name.
func TestEveryFieldSet(t *testing.T) {
	if raceEnabled {
		t.Skip("what the files set does not depend on the race detector; the plain run checks it")
	}
	gocmd, err := exec.LookPath("go")
	if err != nil {
		gocmd = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	out, err := exec.Command(gocmd, "list", "-export", "-deps", "-json=ImportPath,Export,Dir,GoFiles,Standard", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	type listed struct {
		ImportPath, Export, Dir string
		GoFiles                 []string
		Standard                bool
	}
	exports := map[string]string{}
	var own []listed
	for dec := json.NewDecoder(strings.NewReader(string(out))); ; {
		var p listed
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		exports[p.ImportPath] = p.Export
		if !p.Standard {
			own = append(own, p)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, errors.New("no export data for " + path)
		}
		return os.Open(exports[path])
	})
	declared := map[string]bool{} // exported fields of exported structs under internal/
	reads, sets := map[string]bool{}, map[string]bool{}
	for _, p := range own {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		if strings.HasPrefix(p.ImportPath, "ecsdns/internal/") {
			for _, name := range pkg.Scope().Names() {
				tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() || tn.IsAlias() {
					continue
				}
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						if f := st.Field(i); f.Exported() && !f.Embedded() {
							declared[fieldKey(tn, f.Name())] = true
						}
					}
				}
			}
		}
		for _, f := range files {
			fieldUses(f, info, reads, sets)
		}
	}

	var unset []string
	for k := range declared {
		if reads[k] && !sets[k] {
			unset = append(unset, k)
		}
	}
	sort.Strings(unset)
	isUnset := map[string]bool{}
	for _, k := range unset {
		isUnset[k] = true
		if _, ok := unsetAllowed[k]; !ok {
			t.Errorf("%s is read but set by no non-test file: delete it with the branch that reads it, set it where a caller decides it, or list it in unsetAllowed with its reason", k)
		}
	}
	for k, reason := range unsetAllowed {
		switch {
		case strings.TrimSpace(reason) == "":
			t.Errorf("unsetAllowed lists %s without a reason", k)
		case !isUnset[k]:
			t.Errorf("unsetAllowed lists %s, which is now set, unread or gone: take it off the list", k)
		}
	}
	t.Logf("%d packages, %d exported fields under internal/, %d read and unset and allowed", len(own), len(declared), len(unset))
}

// fieldKey names a field of a struct type the way unsetAllowed does:
// "internal/pkg.Type.Field".
func fieldKey(tn *types.TypeName, field string) string {
	return strings.TrimPrefix(tn.Pkg().Path(), "ecsdns/") + "." + tn.Name() + "." + field
}

// fieldUses records, by fieldKey, every struct field f reads and every
// one it sets.
func fieldUses(f *ast.File, info *types.Info, reads, sets map[string]bool) {
	setting := map[*ast.SelectorExpr]bool{}
	mark := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			setting[sel] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				mark(e)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				mark(n.Key)
				if n.Value != nil {
					mark(n.Value)
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X)
			}
		case *ast.CompositeLit:
			tn, st := namedStruct(info.Types[n].Type)
			if st == nil || len(n.Elts) == 0 {
				break
			}
			if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
				for i := 0; i < st.NumFields(); i++ {
					sets[fieldKey(tn, st.Field(i).Name())] = true
				}
				break
			}
			for _, e := range n.Elts {
				if id, ok := e.(*ast.KeyValueExpr).Key.(*ast.Ident); ok {
					sets[fieldKey(tn, id.Name)] = true
				}
			}
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			if k, ok := selectedField(s); ok {
				if setting[sel] {
					sets[k] = true
				} else {
					reads[k] = true
				}
			}
		}
		return true
	})
}

// namedStruct returns the named struct type t is, or points to, and its
// fields; nil when t is no such type.
func namedStruct(t types.Type) (*types.TypeName, *types.Struct) {
	if t == nil {
		return nil, nil
	}
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil, nil
	}
	st, _ := named.Underlying().(*types.Struct)
	return named.Origin().Obj(), st
}

// selectedField returns the fieldKey of the field a selection picks,
// following a promoted field through the structs that embed it.
func selectedField(s *types.Selection) (string, bool) {
	t := s.Recv()
	path := s.Index()
	for i, idx := range path {
		tn, st := namedStruct(t)
		if st == nil {
			if p, ok := types.Unalias(t).(*types.Pointer); ok {
				t = p.Elem()
			}
			var ok bool
			if st, ok = t.Underlying().(*types.Struct); !ok {
				return "", false
			}
		}
		if i == len(path)-1 {
			if tn == nil {
				return "", false
			}
			return fieldKey(tn, st.Field(idx).Name()), true
		}
		t = st.Field(idx).Type()
	}
	return "", false
}
