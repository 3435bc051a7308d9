// Package lint implements ecslint, the project's static analyzer. It
// enforces invariants that the tests cannot economically defend on every
// PR: deterministic replay (no wall clock or global RNG on simulated
// paths), wire-safety (all DNS byte-level parsing stays behind the
// dnswire/ecsopt codecs, and codec errors are never discarded), and
// concurrency hygiene (tracked goroutines, no blocking calls under a
// mutex). Checks are table-registered, configured by Config, and
// suppressed line-by-line with //ecslint:ignore directives; a directive
// that suppresses nothing is itself reported (directives.go).
//
// The analyzer is stdlib-only: packages are parsed with go/parser and
// type-checked with go/types, importing dependencies from compiler
// export data located via `go list -export` (see load.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"sync"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	File  string // path relative to the module root
	Line  int
	Col   int
	Check string
	Msg   string
}

// String renders the canonical `file:line: [check] message` form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Check, f.Msg)
}

// Check is one registered analysis, run once per loaded package.
type Check struct {
	// Name is the short identifier used in output, config, and
	// //ecslint:ignore directives.
	Name string
	// Doc is a one-line description of the invariant the check protects.
	Doc string
	// Run analyzes ctx.Pkg.
	Run func(ctx *Context)
}

// AllChecks returns the registered check table, in output order.
func AllChecks() []Check {
	return []Check{
		wallclockCheck,
		globalrandCheck,
		uncheckederrCheck,
		goroutinetrackCheck,
		mutexholdCheck,
		rawwireCheck,
		ctxflowCheck,
		retentionCheck,
	}
}

// CheckNames returns the names of every registered check.
func CheckNames() []string {
	var names []string
	for _, c := range AllChecks() {
		names = append(names, c.Name)
	}
	return names
}

// Config selects and parameterizes checks. DefaultConfig returns the
// project policy; tests build narrower ones targeting fixture packages.
type Config struct {
	// Enabled maps check name -> on/off. Checks absent from the map
	// follow EnableAll.
	Enabled map[string]bool
	// EnableAll is the default state for checks not listed in Enabled.
	EnableAll bool

	// WallclockAllow lists import paths (exact, or prefix of a
	// subpackage) where time.Now/Sleep/After/Tick are permitted: the
	// real-transport packages whose sockets genuinely live on the wall
	// clock. Their test files are covered too, since in-package tests
	// belong to the same import path.
	WallclockAllow []string

	// GoroutinePackages lists the concurrency-heavy import paths where
	// bare `go func` literals must be tracked (WaitGroup/tracker call)
	// or cancellable (receive a context.Context).
	GoroutinePackages []string

	// CodecPackages lists the packages whose Pack/Unpack/Decode/Encode
	// errors must never be discarded.
	CodecPackages []string

	// RawwireAllow lists the packages allowed to index or slice raw DNS
	// message bytes: the codec itself.
	RawwireAllow []string

	// CtxflowPackages lists the import paths where a function that takes
	// a context.Context must keep it live to every blocking operation:
	// the transport and emulation layers, where a dropped context turns
	// shutdown into a hang.
	CtxflowPackages []string

	// RetentionPackages lists the import paths whose codec call sites
	// are checked for aliases retained across a repack or pool return.
	RetentionPackages []string
}

// DefaultConfig is the policy for this module: the allowlists mirror the
// architecture described in DESIGN.md.
func DefaultConfig() *Config {
	return &Config{
		EnableAll: true,
		// The packages that drive real sockets: deadlines, retransmit
		// backoff, rate pacing, RTT stopwatches and the clock a live
		// daemon injects are genuinely wall-clock. The scanner paces real
		// probes and times the campaign (Engine, RateLimiter, Progress);
		// chaostest's overload rig sets socket deadlines on a real server
		// and polls it and the goroutine count. cmd/ecslab, ecsreplay,
		// tracegen and every simulation package stay covered.
		WallclockAllow: []string{
			"ecsdns/internal/dnsclient",
			"ecsdns/internal/dnsserver",
			"ecsdns/internal/upstreams/live",
			"ecsdns/internal/scanner",
			"ecsdns/internal/netem/chaostest",
			"ecsdns/cmd/authdns",
			"ecsdns/cmd/recursor",
			"ecsdns/cmd/ecsscan",
			"ecsdns/examples/livewire",
		},
		GoroutinePackages: []string{
			"ecsdns/internal/dnsserver",
			"ecsdns/internal/dnsclient",
			"ecsdns/internal/scanner",
			"ecsdns/internal/netem",
			"ecsdns/internal/upstreams",
		},
		CodecPackages: []string{
			"ecsdns/internal/dnswire",
			"ecsdns/internal/ecsopt",
		},
		RawwireAllow: []string{
			"ecsdns/internal/dnswire",
			"ecsdns/internal/ecsopt",
		},
		CtxflowPackages: []string{
			"ecsdns/internal/dnsclient",
			"ecsdns/internal/dnsserver",
			"ecsdns/internal/scanner",
			"ecsdns/internal/netem",
		},
		RetentionPackages: []string{
			"ecsdns/internal/dnsclient",
			"ecsdns/internal/dnsserver",
			"ecsdns/internal/scanner",
		},
	}
}

// CheckEnabled reports whether the named check should run.
func (c *Config) CheckEnabled(name string) bool {
	if v, ok := c.Enabled[name]; ok {
		return v
	}
	return c.EnableAll
}

// pathListed reports whether importPath is path itself or a subpackage
// of any entry in list.
func pathListed(list []string, importPath string) bool {
	for _, p := range list {
		if importPath == p || strings.HasPrefix(importPath, p+"/") {
			return true
		}
	}
	return false
}

// Context is the per-(package, check) analysis state handed to Check.Run.
type Context struct {
	Pkg       *Package
	Cfg       *Config
	check     string
	moduleDir string
	findings  *[]Finding
}

// Reportf records a finding at pos.
func (c *Context) Reportf(pos token.Pos, format string, args ...any) {
	p := c.Pkg.Fset.Position(pos)
	*c.findings = append(*c.findings, Finding{
		File:  relToModule(c.moduleDir, p.Filename),
		Line:  p.Line,
		Col:   p.Column,
		Check: c.check,
		Msg:   fmt.Sprintf(format, args...),
	})
}

// isTestFile reports whether the file at pos is a _test.go file.
func (c *Context) isTestFile(f *ast.File) bool {
	return strings.HasSuffix(c.Pkg.Fset.Position(f.Pos()).Filename, "_test.go")
}

// posInTestFile reports whether pos lives in a _test.go file.
func (c *Context) posInTestFile(pos token.Pos) bool {
	return strings.HasSuffix(c.Pkg.Fset.Position(pos).Filename, "_test.go")
}

// Run executes every enabled check over pkgs and returns the surviving
// findings: deterministically sorted, deduplicated, and filtered through
// //ecslint:ignore directives.
func Run(pkgs []*Package, cfg *Config) []Finding {
	findings := applyIgnores(pkgs, runChecks(pkgs, cfg), cfg)
	sortFindings(findings)
	return dedupeFindings(findings)
}

// runChecks returns what the enabled checks report, before any directive
// is applied. Packages are analyzed concurrently (the CFG caches
// synchronize via sync.Once and go/types lookups are read-only).
func runChecks(pkgs []*Package, cfg *Config) []Finding {
	perPkg := make([][]Finding, len(pkgs))
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			for _, chk := range AllChecks() {
				if !cfg.CheckEnabled(chk.Name) {
					continue
				}
				ctx := &Context{
					Pkg:       pkg,
					Cfg:       cfg,
					check:     chk.Name,
					moduleDir: pkg.ModuleDir,
					findings:  &perPkg[i],
				}
				chk.Run(ctx)
			}
		}(i, pkg)
	}
	wg.Wait()

	var findings []Finding
	for _, fs := range perPkg {
		findings = append(findings, fs...)
	}
	return findings
}

// sortFindings orders findings by file, line, column, check, message.
func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Msg < b.Msg
	})
}

// dedupeFindings drops identical adjacent findings (a check may visit an
// expression twice through different AST parents).
func dedupeFindings(findings []Finding) []Finding {
	out := findings[:0]
	for i, f := range findings {
		if i > 0 && f == findings[i-1] {
			continue
		}
		out = append(out, f)
	}
	return out
}
