package ecsdns

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// unlinkedAllowed lists the functions under internal/ that no binary
// links and that stay anyway, each with its reason. An entry that a
// binary links again, or whose function is deleted, fails
// TestEveryFunctionLinked until it goes from this list, so the list only
// shrinks.
var unlinkedAllowed = map[string]string{
	// bench/layers, the per-layer benchmark, drives these.
	"internal/dnsclient.(*Client).ExchangeUDP":    "bench/layers calls it; ROADMAP item 1(d) unpins it",
	"internal/dnsclient.(*Pipeline).Exchange":     "bench/layers calls it; ROADMAP item 1(d) unpins it",
	"internal/dnsclient.(*Pipeline).ExchangeInto": "bench/layers calls it; ROADMAP item 1(d) unpins it",
	"internal/dnsclient.(*Pipeline).newOne":       "reached only from Pipeline.Exchange, which bench/layers calls; ROADMAP item 1(d) unpins it",
	"internal/dnsclient.(*Pipeline).resolveDest":  "reached only from Pipeline.Exchange, which bench/layers calls; ROADMAP item 1(d) unpins it",
	"internal/scanner.(*Engine).Run":              "bench/layers calls it; ROADMAP item 1(d) unpins it",
	"internal/scanner.NewProgress":                "bench/layers calls it; ROADMAP item 1(d) unpins it",

	"internal/udpio.(*Handle).ReadFrom":          "udpio's tests read with it (deadlines, close, the allocation gate); the product reads through Reader",
	"internal/dnswire.(*Message).PackNoCompress": "reference encoder: the differential test and the compression ablation read it",
}

// TestEveryFunctionLinked holds the product to what its binaries link.
// It builds every cmd/* and examples/* program with inlining off, plus
// one program that references each exported function of this package
// (the facade's API is a root too), reads their symbol tables, and
// fails on a function declared under internal/ that none of them links
// and unlinkedAllowed does not list. Only files the current build
// selects are read, so another platform's fallback is not listed.
func TestEveryFunctionLinked(t *testing.T) {
	if raceEnabled {
		t.Skip("what the binaries link does not depend on the race detector; the plain run checks it")
	}
	gocmd, err := exec.LookPath("go")
	if err != nil {
		gocmd = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	tmp := t.TempDir()

	// The facade root: a main package, laid over a directory that does
	// not exist, that takes the value of every exported function here.
	var refs []string
	for _, fn := range declaredFuncs(t, ".") {
		if fn.recv == "" && ast.IsExported(fn.name) {
			refs = append(refs, "ecsdns."+fn.name)
		}
	}
	if len(refs) == 0 {
		t.Fatal("found no exported function in the root package")
	}
	root := filepath.Join(tmp, "facade.go")
	src := fmt.Sprintf("package main\n\nimport \"ecsdns\"\n\nvar api = []any{%s}\n\nfunc main() { println(api) }\n", strings.Join(refs, ", "))
	if err := os.WriteFile(root, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	overlay := filepath.Join(tmp, "overlay.json")
	ov := fmt.Sprintf(`{"Replace":{%q:%q}}`, filepath.Join(wd, "linkgatefacade", "main.go"), root)
	if err := os.WriteFile(overlay, []byte(ov), 0o644); err != nil {
		t.Fatal(err)
	}

	bin := filepath.Join(tmp, "bin")
	build := exec.Command(gocmd, "build", "-gcflags=all=-l", "-overlay", overlay, "-o", bin+string(filepath.Separator),
		"./cmd/...", "./examples/...", "./linkgatefacade")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the binaries: %v\n%s", err, out)
	}
	bins, _ := filepath.Glob(filepath.Join(bin, "*"))
	mains, _ := filepath.Glob("cmd/*/main.go")
	examples, _ := filepath.Glob("examples/*/main.go")
	if len(bins) != len(mains)+len(examples)+1 {
		t.Fatalf("built %d binaries, want every cmd (%d), every example (%d) and the facade root", len(bins), len(mains), len(examples))
	}
	nm, err := exec.Command(gocmd, append([]string{"tool", "nm"}, bins...)...).Output()
	if err != nil {
		t.Fatalf("go tool nm: %v", err)
	}
	linked := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(nm))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		// "file:\t  addr T name"; a generic instantiation's name holds
		// spaces and its type arguments in brackets, which go.
		_, line, _ := strings.Cut(sc.Text(), "\t")
		fields := strings.SplitN(strings.TrimSpace(line), " ", 3)
		if len(fields) == 3 && (fields[1] == "T" || fields[1] == "t") {
			linked[stripTypeArgs(fields[2])] = true
		}
	}

	var unlinked []string
	for _, fn := range declaredFuncs(t, "internal") {
		sym := fn.dir + "." + fn.name
		switch {
		case strings.HasPrefix(fn.recv, "*"):
			sym = fn.dir + ".(" + fn.recv + ")." + fn.name
		case fn.recv != "":
			sym = fn.dir + "." + fn.recv + "." + fn.name
		}
		if !linked["ecsdns/"+sym] {
			unlinked = append(unlinked, sym)
		}
	}
	sort.Strings(unlinked)
	isUnlinked := map[string]bool{}
	for _, u := range unlinked {
		isUnlinked[u] = true
		if _, ok := unlinkedAllowed[u]; !ok {
			t.Errorf("%s is linked by no binary: delete it, move it into a _test.go file, or list it in unlinkedAllowed with its reason", u)
		}
	}
	for u, reason := range unlinkedAllowed {
		switch {
		case strings.TrimSpace(reason) == "":
			t.Errorf("unlinkedAllowed lists %s without a reason", u)
		case !isUnlinked[u]:
			t.Errorf("unlinkedAllowed lists %s, which is now linked or gone: take it off the list", u)
		}
	}
	t.Logf("%d binaries, %d linked symbols, %d functions under internal/ unlinked and allowed", len(bins), len(linked), len(unlinked))
}

// declaredFunc is one function declaration: its package directory
// (slash-separated, relative to the module root), its receiver type
// ("" for a function, "*T" for a pointer receiver) and its name.
type declaredFunc struct{ dir, recv, name string }

// declaredFuncs parses every non-test Go file under dir that the current
// build selects and returns its function declarations, init and blank
// functions aside.
func declaredFuncs(t *testing.T, dir string) []declaredFunc {
	t.Helper()
	var out []declaredFunc
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && (dir == "." || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			fn := declaredFunc{dir: filepath.ToSlash(filepath.Dir(path)), name: fd.Name.Name}
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				fn.recv = recvType(fd.Recv.List[0].Type)
			}
			out = append(out, fn)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// recvType renders a receiver type as the symbol table names it: "T" or
// "*T", type parameters dropped.
func recvType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return "*" + recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return fmt.Sprintf("%T", e)
}

// stripTypeArgs drops every bracketed type-argument list from a symbol
// name, so "p.Do[go.shape.struct { ... }]" reads "p.Do" and
// "p.(*T[...]).M" reads "p.(*T).M".
func stripTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}
