package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: parsed files (with
// comments), their raw sources, and full go/types information.
type Package struct {
	ImportPath string
	Dir        string
	ModuleDir  string
	Fset       *token.FileSet
	Files      []*ast.File
	Sources    [][]byte // parallel to Files
	Types      *types.Package
	Info       *types.Info
}

// Loader loads and type-checks the module's packages without any
// dependency beyond the standard library and the go tool itself: module
// packages are checked from source; imports outside the module are
// satisfied from compiler export data located via `go list -export`.
type Loader struct {
	ModuleDir  string
	ModulePath string

	fset     *token.FileSet
	exports  map[string]string  // import path -> export data file
	listed   map[string]listPkg // module packages by import path
	loaded   map[string]*Package
	checking map[string]bool // cycle detection
	std      types.Importer
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath   string
	Dir          string
	Name         string
	Standard     bool
	Export       string
	ForTest      string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// NewLoader prepares a loader rooted at the module containing dir.
// patterns selects the packages to load (default ./...).
func NewLoader(dir string, patterns ...string) (*Loader, error) {
	moduleDir, modulePath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	l := &Loader{
		ModuleDir:  moduleDir,
		ModulePath: modulePath,
		fset:       token.NewFileSet(),
		exports:    make(map[string]string),
		listed:     make(map[string]listPkg),
		loaded:     make(map[string]*Package),
		checking:   make(map[string]bool),
	}
	l.std = importer.ForCompiler(l.fset, "gc", l.lookupExport)
	if err := l.list(patterns); err != nil {
		return nil, err
	}
	return l, nil
}

// findModule walks up from dir to go.mod and reads the module path.
func findModule(dir string) (moduleDir, modulePath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if path, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(path), nil
				}
			}
			return "", "", fmt.Errorf("lint: no module line in %s/go.mod", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
	}
}

// list runs `go list -json -deps -test -export` and indexes the result:
// export data files for out-of-module imports, file lists for module
// packages.
func (l *Loader) list(patterns []string) error {
	args := append([]string{"list", "-json", "-deps", "-test", "-export"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.ModuleDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("lint: go list: %w", err)
	}
	dec := json.NewDecoder(out)
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("lint: parsing go list output: %w", err)
		}
		l.index(p)
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("lint: go list: %w\n%s", err, stderr.String())
	}
	return nil
}

// index records one go list entry.
func (l *Loader) index(p listPkg) {
	// Test variants ("pkg [pkg.test]") and generated test mains
	// ("pkg.test") are skipped as packages — the loader folds
	// TestGoFiles into the base package itself — but their export data
	// still satisfies imports of out-of-module test dependencies.
	variant := p.ForTest != "" || strings.HasSuffix(p.ImportPath, ".test") ||
		strings.Contains(p.ImportPath, " ")
	if p.Export != "" && !variant {
		l.exports[p.ImportPath] = p.Export
	}
	if variant {
		return
	}
	if !p.Standard && l.inModule(p.ImportPath) {
		l.listed[p.ImportPath] = p
	}
}

func (l *Loader) inModule(path string) bool {
	return path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")
}

// lookupExport feeds the gc importer the export data file for an
// out-of-module import. Paths missing from the initial -deps closure
// (possible for fixture packages with exotic imports) are resolved with
// an on-demand `go list -export`.
func (l *Loader) lookupExport(path string) (io.ReadCloser, error) {
	file, ok := l.exports[path]
	if !ok {
		cmd := exec.Command("go", "list", "-json", "-deps", "-export", path)
		cmd.Dir = l.ModuleDir
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("lint: locating export data for %s: %w", path, err)
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p listPkg
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
			l.index(p)
		}
		file, ok = l.exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %s", path)
		}
	}
	return os.Open(file)
}

// Import implements types.Importer: module-internal imports resolve to
// source-checked packages (so type identity is shared across the whole
// load), everything else to export data. Imported module packages are
// checked WITHOUT their test files — test files are a separate
// compilation unit in the go build model, and folding them in here
// would manufacture import cycles (dnsclient's tests import dnsserver,
// whose tests import dnsclient).
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.inModule(path) {
		pkg, err := l.importVariant(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// importVariant loads the GoFiles-only compilation of a module package,
// used to satisfy imports from other packages.
func (l *Loader) importVariant(path string) (*Package, error) {
	if pkg, ok := l.loaded[path]; ok {
		return pkg, nil
	}
	lp, ok := l.listed[path]
	if !ok {
		return nil, fmt.Errorf("lint: package %s not in load set", path)
	}
	if l.checking[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	pkg, err := l.check(path, lp.Dir, lp.GoFiles)
	if err != nil {
		return nil, err
	}
	l.loaded[path] = pkg
	return pkg, nil
}

// LoadAll loads every listed module package for analysis, sorted by
// import path. Each analysis package includes its in-package test files
// (checked as the go tool's "pkg [pkg.test]" unit) and any external
// test package, folded into one Package for reporting.
func (l *Loader) LoadAll() ([]*Package, error) {
	paths := make([]string, 0, len(l.listed))
	for p := range l.listed {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var pkgs []*Package
	for _, path := range paths {
		lp := l.listed[path]
		var pkg *Package
		var err error
		if len(lp.TestGoFiles) == 0 {
			pkg, err = l.importVariant(path)
		} else {
			files := append(append([]string{}, lp.GoFiles...), lp.TestGoFiles...)
			pkg, err = l.check(path, lp.Dir, files)
		}
		if err != nil {
			return nil, err
		}
		if len(lp.XTestGoFiles) > 0 {
			xpkg, err := l.check(path+"_test", lp.Dir, lp.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			pkg.Files = append(pkg.Files, xpkg.Files...)
			pkg.Sources = append(pkg.Sources, xpkg.Sources...)
			mergeInfo(pkg.Info, xpkg.Info)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir parses and type-checks a single directory outside the go list
// universe (the golden-test fixtures under testdata). importPath is
// synthetic, e.g. "fixture/wallclockbad".
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	sort.Strings(files)
	return l.check(importPath, dir, files)
}

// check parses and type-checks one set of files as a package.
func (l *Loader) check(importPath, dir string, names []string) (*Package, error) {
	pkg := &Package{
		ImportPath: importPath,
		Dir:        dir,
		ModuleDir:  l.ModuleDir,
		Fset:       l.fset,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		},
	}
	for _, name := range names {
		full := filepath.Join(dir, name)
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.fset, full, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", full, err)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Sources = append(pkg.Sources, src)
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", importPath, err)
	}
	pkg.Types = tpkg
	return pkg, nil
}

func mergeInfo(dst, src *types.Info) {
	for k, v := range src.Types {
		dst.Types[k] = v
	}
	for k, v := range src.Defs {
		dst.Defs[k] = v
	}
	for k, v := range src.Uses {
		dst.Uses[k] = v
	}
	for k, v := range src.Selections {
		dst.Selections[k] = v
	}
	for k, v := range src.Implicits {
		dst.Implicits[k] = v
	}
}

// relToModule rewrites an absolute file path relative to the module
// root, for stable, machine-independent findings.
func relToModule(moduleDir, file string) string {
	if moduleDir == "" {
		return file
	}
	if rel, err := filepath.Rel(moduleDir, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return file
}
