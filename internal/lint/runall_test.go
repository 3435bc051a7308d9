package lint

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestDirectiveCoversStatementSpan pins the statement-span rule from
// directives.go: a standalone //ecslint:ignore above a multi-line
// statement suppresses findings on every line of that statement, and on
// nothing past its end.
func TestDirectiveCoversStatementSpan(t *testing.T) {
	l := fixtureLoader(t)
	pkgs := []*Package{loadFixture(t, l, "spanfixture")}
	cfg := &Config{Enabled: map[string]bool{"wallclock": true}}

	// covered(): time.Now on lines 10 and 13 both sit inside the
	// directive's statement span. notCovered(): line 20 is inside the
	// span, line 22 is the next statement and must survive. schedule:
	// the directive above the stamps element covers its whole
	// multi-line struct-literal value (lines 34-35).
	lines := func(findings []Finding) map[int]bool {
		got := make(map[int]bool)
		for _, f := range findings {
			if f.Check != "wallclock" {
				t.Errorf("unexpected %s finding: %s", f.Check, f)
				continue
			}
			got[f.Line] = true
		}
		return got
	}
	raw := lines(runChecks(pkgs, cfg))
	for _, want := range []int{10, 13, 20, 22, 34, 35} {
		if !raw[want] {
			t.Errorf("line %d not reported before directives apply (got %v)", want, raw)
		}
	}
	if active := lines(Run(pkgs, cfg)); len(active) != 1 || !active[22] {
		t.Errorf("active wallclock lines = %v, want exactly {22}", active)
	}
}

// mixedFixtures is the load used by the determinism and race tests: every
// check, and the directive handling, has a package exercising it.
var mixedFixtures = []string{
	"wallclockbad", "ignorefixture",
	"globalrandbad", "uncheckederrbad",
	"goroutinetrackbad", "goroutinetrackgood",
	"rawwirebad",
	"unusedignorebad", "unusedignoregood",
}

// allChecksFixtureConfig enables every registered check against the
// fixture package lists.
func allChecksFixtureConfig() *Config {
	cfg := fixtureConfig("")
	cfg.Enabled = nil
	cfg.EnableAll = true
	return cfg
}

func loadMixedFixtures(t *testing.T) []*Package {
	t.Helper()
	l := fixtureLoader(t)
	var pkgs []*Package
	for _, d := range mixedFixtures {
		pkgs = append(pkgs, loadFixture(t, l, d))
	}
	return pkgs
}

func renderFindings(findings []Finding) []byte {
	var buf bytes.Buffer
	for _, f := range findings {
		fmt.Fprintln(&buf, f)
	}
	return buf.Bytes()
}

// TestRunAllDeterministic requires byte-identical output across repeated
// runs over the same loaded tree: per-package goroutine scheduling and
// map iteration inside the checks must never leak into the ordering or
// content of findings.
func TestRunAllDeterministic(t *testing.T) {
	pkgs := loadMixedFixtures(t)
	cfg := allChecksFixtureConfig()

	first := renderFindings(Run(pkgs, cfg))
	if len(first) == 0 {
		t.Fatal("fixture run produced no findings; determinism test is vacuous")
	}
	for i := 0; i < 5; i++ {
		got := renderFindings(Run(pkgs, cfg))
		if !bytes.Equal(got, first) {
			t.Fatalf("run %d diverged\n--- first ---\n%s--- run %d ---\n%s",
				i+2, first, i+2, got)
		}
	}
}

// TestConcurrentRunsShareFlowCaches runs the whole analyzer from several
// goroutines over the same loaded packages, which every run shares; under
// -race this pins that no check mutates shared package state.
func TestConcurrentRunsShareFlowCaches(t *testing.T) {
	pkgs := loadMixedFixtures(t)
	cfg := allChecksFixtureConfig()

	const workers = 8
	results := make([][]byte, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = renderFindings(Run(pkgs, cfg))
		}(i)
	}
	wg.Wait()

	for i := 1; i < workers; i++ {
		if !bytes.Equal(results[i], results[0]) {
			t.Errorf("worker %d diverged from worker 0\n--- 0 ---\n%s--- %d ---\n%s",
				i, results[0], i, results[i])
		}
	}
}

// TestLintTreeBudget runs the full check table over the real module tree
// and fails if the pass blows a generous wall-time budget.
// The point is not a tight performance bound — CI machines vary — but a
// tripwire: an accidentally quadratic walk shows up as minutes, not
// seconds.
func TestLintTreeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree lint pass: skipped with -short")
	}
	const budget = 60 * time.Second
	start := time.Now() //ecslint:ignore wallclock measures real analyzer wall time
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatalf("loading packages: %v", err)
	}
	loaded := time.Since(start)

	runStart := time.Now() //ecslint:ignore wallclock measures real analyzer wall time
	Run(pkgs, DefaultConfig())
	ran := time.Since(runStart)
	t.Logf("load %v, analyze %v (%d packages, %d checks)", loaded, ran, len(pkgs), len(AllChecks()))
	if ran > budget {
		t.Fatalf("full lint pass took %v, over the %v budget", ran, budget)
	}
}
