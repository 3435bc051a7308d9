package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mutation seeds one realistic bug into a real module package via a
// textual edit and requires the named check to catch it. The unmutated
// copy must stay clean under the same configuration, so the finding is
// attributable to the seeded bug alone — a check that is silent on the
// mutant is vacuous, one that fires on the baseline is noisy.
//
// Each check's mutant is its row in the DESIGN.md §7 ledger: a bug
// on which `go vet ./pkg && go test -race -count=1 ./pkg` (and the plain
// run) of the mutated package stayed green, so this check is the only
// tier-1 gate that sees it. That sentence is what a later PR must
// re-establish before deleting the check — or, once a test kills the
// mutant, what lets it delete the check.
type mutation struct {
	check   string
	pkg     string // module import path to copy
	file    string // file within the package carrying the edit
	old     string // anchor text; must occur exactly once
	new     string
	wantMsg string // substring required in some finding on the mutant
}

func mutations() []mutation {
	return []mutation{
		{
			// The overflow refusal is written from a fire-and-forget
			// goroutine that nothing waits for at Close. vet and the
			// dnsserver race tests are green on it.
			check: "goroutinetrack",
			pkg:   "ecsdns/internal/dnsserver",
			file:  "dnsserver.go",
			old: "\t\t\tif data := l.ws.refuse(pkt, dnswire.RCodeServFail, false); data != nil {\n" +
				"\t\t\t\tl.pc.WriteToUDPAddrPort(data, from)\n",
			new: "\t\t\tif data := l.ws.refuse(pkt, dnswire.RCodeServFail, false); data != nil {\n" +
				"\t\t\t\tgo func() { l.pc.WriteToUDPAddrPort(data, from) }()\n",
			wantMsg: "neither tracked",
		},
		{
			// The authority stamps its log records from the wall clock
			// instead of its injected one, so a simulated campaign's
			// passive dataset changes from run to run. vet and the
			// authority tests, plain and -race, are green on it.
			check:   "wallclock",
			pkg:     "ecsdns/internal/authority",
			file:    "server.go",
			old:     "\t\trec.Time = s.cfg.Now()\n",
			new:     "\t\trec.Time = time.Now()\n",
			wantMsg: "time.Now reads the wall clock",
		},
		{
			// Not a check but the stale-directive report: a suppression
			// planted where nothing needs one, naming a check that runs on
			// the package.
			check: "unusedignore",
			pkg:   "ecsdns/internal/dnsclient",
			file:  "pipeline.go",
			old:   "func (s *shard) consume(w *waiter) {",
			new: "func (s *shard) consume(w *waiter) {\n" +
				"\t//ecslint:ignore goroutinetrack speculative suppression that matches nothing",
			wantMsg: "suppresses nothing",
		},
	}
}

// mutantConfig enables the check under test and points the
// package-gated lists at the synthetic import path of the copied
// package.
func mutantConfig(check, importPath string) *Config {
	cfg := &Config{
		Enabled:           map[string]bool{check: true},
		GoroutinePackages: []string{importPath},
	}
	if check == "unusedignore" {
		// Staleness is judged only for checks that ran: the directive
		// the mutation plants names goroutinetrack, so goroutinetrack runs.
		cfg.Enabled = map[string]bool{"goroutinetrack": true}
	}
	return cfg
}

// TestMutations copies each target package's compiled sources to a
// temp dir twice — verbatim and with the bug seeded — and checks that
// the finding appears exactly on the mutant.
func TestMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks real packages repeatedly: skipped with -short")
	}
	l := fixtureLoader(t)
	for _, m := range mutations() {
		t.Run(m.check, func(t *testing.T) {
			lp, ok := l.listed[m.pkg]
			if !ok {
				t.Fatalf("package %s not in the loader's list", m.pkg)
			}
			base := filepath.Base(m.pkg)

			write := func(dir string, mutate bool) {
				t.Helper()
				seeded := false
				for _, name := range lp.GoFiles {
					src, err := os.ReadFile(filepath.Join(lp.Dir, name))
					if err != nil {
						t.Fatal(err)
					}
					if mutate && name == m.file {
						if c := strings.Count(string(src), m.old); c != 1 {
							t.Fatalf("mutation anchor %q occurs %d times in %s, want 1", m.old, c, name)
						}
						src = []byte(strings.Replace(string(src), m.old, m.new, 1))
						seeded = true
					}
					if err := os.WriteFile(filepath.Join(dir, name), src, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				if mutate && !seeded {
					t.Fatalf("file %s not among %s's GoFiles", m.file, m.pkg)
				}
			}

			run := func(dir, importPath string) []Finding {
				t.Helper()
				pkg, err := l.LoadDir(dir, importPath)
				if err != nil {
					t.Fatalf("type-checking %s: %v", importPath, err)
				}
				return Run([]*Package{pkg}, mutantConfig(m.check, importPath))
			}

			cleanDir, mutantDir := t.TempDir(), t.TempDir()
			write(cleanDir, false)
			write(mutantDir, true)

			if fs := run(cleanDir, "mutant/"+base+"/clean"); len(fs) != 0 {
				t.Fatalf("unmutated %s is not clean under %s: %v", m.pkg, m.check, fs)
			}
			findings := run(mutantDir, "mutant/"+base+"/seeded")
			for _, f := range findings {
				if f.Check == m.check && strings.Contains(f.Msg, m.wantMsg) {
					return
				}
			}
			t.Fatalf("seeded bug in %s/%s not caught by %s (findings: %v)",
				m.pkg, m.file, m.check, findings)
		})
	}
}
