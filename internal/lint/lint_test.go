package lint

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

var (
	loaderOnce sync.Once
	sharedL    *Loader
	loaderErr  error
)

// fixtureLoader builds one Loader for the whole test binary: NewLoader
// shells out to `go list -deps -export`, which is worth amortizing.
func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		sharedL, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("loading module: %v", loaderErr)
	}
	return sharedL
}

func loadFixture(t *testing.T, l *Loader, name string) *Package {
	t.Helper()
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", name), "fixture/"+name)
	if err != nil {
		t.Fatalf("fixture %s: %v", name, err)
	}
	return pkg
}

// fixtureConfig enables exactly one check, with the allow/target lists
// pointed at the fixture packages (and the real codec packages, which
// the uncheckederr fixtures import). The unusedignore fixtures, which
// hold the stale-directive report, enable wallclock, the producer of the
// findings their directives claim to suppress: staleness is only judged
// for checks that ran.
func fixtureConfig(check string) *Config {
	cfg := &Config{
		Enabled:        map[string]bool{check: true},
		WallclockAllow: []string{"fixture/wallclockallowed"},
		GoroutinePackages: []string{
			"fixture/goroutinetrackbad",
			"fixture/goroutinetrackgood",
		},
		CodecPackages: []string{
			"ecsdns/internal/dnswire",
			"ecsdns/internal/ecsopt",
		},
		RawwireAllow: []string{"fixture/rawwireallowed"},
	}
	if check == "unusedignore" {
		cfg.Enabled = map[string]bool{"wallclock": true}
	}
	return cfg
}

// TestCheckGolden runs each check, and the stale-directive report, over
// its positive (clean) and negative (violating) fixture packages and
// compares the full finding list against a golden file. Run with -update
// to regenerate.
func TestCheckGolden(t *testing.T) {
	cases := []struct {
		check string
		dirs  []string
	}{
		{"wallclock", []string{"wallclockgood", "wallclockallowed", "wallclockbad"}},
		{"globalrand", []string{"globalrandgood", "globalrandbad"}},
		{"uncheckederr", []string{"uncheckederrgood", "uncheckederrbad"}},
		{"goroutinetrack", []string{"goroutinetrackgood", "goroutinetrackbad"}},
		{"rawwire", []string{"rawwiregood", "rawwirebad"}},
		{"unusedignore", []string{"unusedignoregood", "unusedignorebad"}},
	}
	for _, tc := range cases {
		t.Run(tc.check, func(t *testing.T) {
			l := fixtureLoader(t)
			var pkgs []*Package
			for _, d := range tc.dirs {
				pkgs = append(pkgs, loadFixture(t, l, d))
			}
			findings := Run(pkgs, fixtureConfig(tc.check))

			// Every "good"/"allowed" fixture must stay silent; every
			// "bad" fixture must produce at least one finding.
			seen := make(map[string]int)
			for _, f := range findings {
				seen[filepath.Base(filepath.Dir(f.File))]++
			}
			for _, d := range tc.dirs {
				bad := len(d) > 3 && d[len(d)-3:] == "bad"
				if bad && seen[d] == 0 {
					t.Errorf("negative fixture %s produced no findings", d)
				}
				if !bad && seen[d] > 0 {
					t.Errorf("positive fixture %s produced %d findings", d, seen[d])
				}
			}

			var buf bytes.Buffer
			for _, f := range findings {
				fmt.Fprintln(&buf, f)
			}
			golden := filepath.Join("testdata", "golden", tc.check+".golden")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("findings diverge from %s\n--- got ---\n%s--- want ---\n%s",
					golden, buf.String(), want)
			}
		})
	}
}

// TestIgnoreDirective pins the directive semantics: suppression applies
// to exactly the named check on exactly the annotated line.
func TestIgnoreDirective(t *testing.T) {
	l := fixtureLoader(t)
	pkg := loadFixture(t, l, "ignorefixture")
	cfg := &Config{Enabled: map[string]bool{"wallclock": true}}
	findings := Run([]*Package{pkg}, cfg)

	got := make(map[string]bool)
	for _, f := range findings {
		got[fmt.Sprintf("%d:%s", f.Line, f.Check)] = true
	}
	want := map[string]bool{
		// wrongCheckNamed: a globalrand directive must not silence
		// wallclock on its line.
		"18:wallclock": true,
		// unsuppressed: no directive at all.
		"22:wallclock": true,
		// unknownCheck: the wallclock finding survives and the bogus
		// directive is itself reported.
		"26:wallclock": true,
		"26:directive": true,
		// missingWhy: suppressed, but the justification gap is reported.
		"30:directive": true,
	}
	for k := range want {
		if !got[k] {
			t.Errorf("expected finding %s is missing (got %v)", k, keys(got))
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("unexpected finding %s (suppression leaked)", k)
		}
	}
}

// TestDirectiveOnlySuppressesItsLine: the same-line directive in the
// fixture must not bleed onto neighbouring lines — the unsuppressed
// time.Now sits two functions below an identical suppressed one.
func TestDirectiveOnlySuppressesItsLine(t *testing.T) {
	l := fixtureLoader(t)
	pkg := loadFixture(t, l, "ignorefixture")
	cfg := &Config{Enabled: map[string]bool{"wallclock": true}}
	for _, f := range Run([]*Package{pkg}, cfg) {
		if f.Check == "wallclock" && (f.Line == 9 || f.Line == 14) {
			t.Errorf("suppressed line %d still reported: %s", f.Line, f)
		}
	}
}

func TestCheckNamesUnique(t *testing.T) {
	t.Parallel()
	seen := make(map[string]bool)
	for _, c := range AllChecks() {
		if c.Name == "" || c.Doc == "" || c.Run == nil {
			t.Errorf("check %+v incompletely registered", c.Name)
		}
		if seen[c.Name] {
			t.Errorf("duplicate check name %s", c.Name)
		}
		seen[c.Name] = true
	}
}

func TestFindingString(t *testing.T) {
	t.Parallel()
	f := Finding{File: "internal/x/x.go", Line: 7, Col: 3, Check: "wallclock", Msg: "nope"}
	if got, want := f.String(), "internal/x/x.go:7: [wallclock] nope"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
