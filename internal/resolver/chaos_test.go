package resolver

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/netem"
)

// The chaos matrix runs failure scenarios against the resolver over a
// fault-injected netem fabric and asserts the invariants that must
// survive any failure mix: every query is accounted for, every answer is
// either correct or an explicit failure, and counters balance. The fault
// layer draws from seeded RNGs over the virtual clock, so a scenario's
// failure trace is a deterministic function of its seed.

// chaosScenario is one chaos configuration. Blackout windows in faults
// and authFaults are offsets from the chaos phase start (a window
// {SimStart+1s, SimStart+4s} blacks out seconds 1–4 of the faulted
// phase, however long the warm phase took).
type chaosScenario struct {
	name string
	// faults applies to every exchange; authFaults only to the
	// authority, the "flaky authoritative" case where the client leg
	// stays clean.
	faults, authFaults netem.FaultPlan
	seed               int64
}

// chaosMatrix is every individual failure mode the paper's measurements
// met in the wild, plus a combined storm.
func chaosMatrix() []chaosScenario {
	blackout := func(start, dur time.Duration) netem.Window {
		return netem.Window{Start: netem.SimStart.Add(start), End: netem.SimStart.Add(start + dur)}
	}
	return []chaosScenario{
		{name: "loss-10", faults: netem.FaultPlan{Loss: 0.10}, seed: 1},
		{name: "loss-50", faults: netem.FaultPlan{Loss: 0.50}, seed: 2},
		{name: "jitter", faults: netem.FaultPlan{Latency: 30 * time.Millisecond, Jitter: 50 * time.Millisecond}, seed: 3},
		{name: "truncation-storm", authFaults: netem.FaultPlan{Truncate: 0.8}, seed: 4},
		{name: "servfail-injection", authFaults: netem.FaultPlan{ServFail: 0.5}, seed: 5},
		{name: "corruption", authFaults: netem.FaultPlan{Corrupt: 0.4}, seed: 6},
		{name: "blackout", authFaults: netem.FaultPlan{Blackouts: []netem.Window{blackout(1*time.Second, 3*time.Second)}}, seed: 7},
		{name: "combined", faults: netem.FaultPlan{Loss: 0.15, Latency: 10 * time.Millisecond, Jitter: 20 * time.Millisecond},
			authFaults: netem.FaultPlan{Truncate: 0.2, ServFail: 0.15, Corrupt: 0.1,
				Blackouts: []netem.Window{blackout(2*time.Second, 2*time.Second)}}, seed: 8},
	}
}

// Outcome classes for one client query under chaos.
const (
	outcomeAnswered = "answered" // NoError with the correct answer
	outcomeServFail = "servfail" // explicit SERVFAIL
	outcomeTrunc    = "truncated"
	outcomeCorrupt  = "corrupt" // transaction-ID mismatch at the client
	outcomeLost     = "lost"    // client leg lost in transit
)

// chaosAnswer is newRig's wildcard A record; a NoError answer carrying
// anything else is corruption leaking through.
var chaosAnswer = netip.MustParseAddr("192.0.2.80")

// chaosRun is the failure trace of one runChaos execution.
type chaosRun struct {
	// outcomes is the per-query outcome class, in query order: the
	// reproducible failure trace. byClass tallies it.
	outcomes []string
	byClass  map[string]int
	// stats is the fault layer's view; failures the resolver's.
	stats    netem.FaultStats
	failures FailureCounters
}

// runChaos executes one scenario against newRig's resolver: a fault-free
// warm phase populates the cache, the entries expire, the fault plans are
// installed, and 60 chaos-phase queries (half for warmed names, half for
// fresh ones) are classified and checked against the invariants.
func runChaos(t *testing.T, sc chaosScenario) chaosRun {
	t.Helper()
	const queries = 60
	rg := newRig(t, GoogleLikeProfile(), authority.ScopeFixed(24))
	n := rg.net
	client := rg.client("Dublin", 7)
	name := func(i int) dnswire.Name {
		return dnswire.MustParseName(fmt.Sprintf("q%03d.test.example.", i))
	}

	// Warm phase: half the names get cached, fault-free.
	warm := queries / 2
	for i := 0; i < warm; i++ {
		q := dnswire.NewQuery(uint16(i+1), name(i), dnswire.TypeA)
		resp, _, err := n.Exchange(client, rg.res.Addr(), q)
		if err != nil || resp.RCode != dnswire.RCodeNoError || len(resp.Answers) == 0 {
			t.Fatalf("%s: warm query %d failed: %v %v", sc.name, i, resp, err)
		}
	}
	// Expire the warm entries (zone TTL 20s) so chaos-phase hits on
	// them must either re-resolve or serve stale.
	n.Clock().Advance(25 * time.Second)

	chaosStart := n.Clock().Now()
	n.SetFaults(shiftWindows(sc.faults, chaosStart), sc.seed)
	n.SetNodeFaults(rg.authAddr, shiftWindows(sc.authFaults, chaosStart), sc.seed+1)

	run := chaosRun{byClass: make(map[string]int)}
	for i := 0; i < queries; i++ {
		q := dnswire.NewQuery(uint16(1000+i), name(i%(warm*2)), dnswire.TypeA)
		resp, _, err := n.Exchange(client, rg.res.Addr(), q)
		class := classify(t, sc.name, q, resp, err)
		run.outcomes = append(run.outcomes, class)
		run.byClass[class]++
	}
	run.stats = n.FaultStats()
	run.failures = rg.res.Failures()

	// Invariants: every query classified (classify fails the test on an
	// unaccountable outcome); counters balance.
	client0, _ := rg.res.Counters()
	if want := int64(warm + queries - run.byClass[outcomeLost]); client0 != want {
		t.Errorf("%s: resolver served %d client queries, want %d (lost client legs excluded)",
			sc.name, client0, want)
	}
	if err := run.failures.Check(); err != nil {
		t.Errorf("%s: %v", sc.name, err)
	}
	return run
}

// classify buckets one client-side query outcome, failing the test on
// anything that is neither a correct answer nor an explicit failure.
func classify(t *testing.T, scenario string, q *dnswire.Message, resp *dnswire.Message, err error) string {
	t.Helper()
	switch {
	case err != nil:
		return outcomeLost
	case resp.ID != q.ID:
		return outcomeCorrupt
	case resp.Truncated:
		return outcomeTrunc
	case resp.RCode == dnswire.RCodeServFail:
		return outcomeServFail
	case resp.RCode == dnswire.RCodeNoError && len(resp.Answers) > 0:
		for _, rr := range resp.Answers {
			a, ok := rr.Data.(*dnswire.ARData)
			if !ok || a.Addr != chaosAnswer {
				t.Fatalf("%s: wrong answer leaked through: %v", scenario, rr)
			}
		}
		return outcomeAnswered
	default:
		t.Fatalf("%s: unaccountable outcome: rcode=%v answers=%d tc=%v",
			scenario, resp.RCode, len(resp.Answers), resp.Truncated)
		return ""
	}
}

// shiftWindows rebases a plan's blackout windows from SimStart-relative
// offsets onto the actual chaos start time.
func shiftWindows(p netem.FaultPlan, start time.Time) netem.FaultPlan {
	if len(p.Blackouts) == 0 {
		return p
	}
	shifted := make([]netem.Window, len(p.Blackouts))
	for i, w := range p.Blackouts {
		shifted[i] = netem.Window{
			Start: start.Add(w.Start.Sub(netem.SimStart)),
			End:   start.Add(w.End.Sub(netem.SimStart)),
		}
	}
	p.Blackouts = shifted
	return p
}

// TestResolverChaosMatrix runs every scenario against the resolver;
// runChaos enforces the invariants, and the per-scenario assertions here
// pin the failure mode each scenario is supposed to exercise.
func TestResolverChaosMatrix(t *testing.T) {
	for _, sc := range chaosMatrix() {
		t.Run(sc.name, func(t *testing.T) {
			r := runChaos(t, sc)
			if r.byClass[outcomeAnswered] == 0 {
				t.Errorf("no query answered under %q: %v", sc.name, r.byClass)
			}
			switch sc.name {
			case "loss-10", "loss-50":
				if r.stats.Lost == 0 {
					t.Errorf("loss scenario injected no loss: %+v", r.stats)
				}
			case "jitter":
				if r.stats.Delayed == 0 || r.stats.ExtraLatency == 0 {
					t.Errorf("jitter scenario added no latency: %+v", r.stats)
				}
				// Latency-only faults must not fail anything.
				if r.byClass[outcomeAnswered] != len(r.outcomes) {
					t.Errorf("jitter alone caused failures: %v", r.byClass)
				}
			case "truncation-storm":
				if r.stats.Truncated == 0 || r.failures.UpstreamTruncated == 0 {
					t.Errorf("no truncations seen: stats=%+v failures=%+v", r.stats, r.failures)
				}
			case "servfail-injection":
				if r.stats.ServFails == 0 || r.failures.UpstreamServFails == 0 {
					t.Errorf("no servfails seen: stats=%+v failures=%+v", r.stats, r.failures)
				}
			case "corruption":
				if r.stats.Corrupted == 0 || r.failures.UpstreamMismatched == 0 {
					t.Errorf("no corruption seen: stats=%+v failures=%+v", r.stats, r.failures)
				}
			case "blackout":
				if r.stats.Blackouts == 0 {
					t.Errorf("blackout window never hit: %+v", r.stats)
				}
				// The warm half of the namespace must survive the
				// blackout via stale serving or cache.
				if r.failures.UpstreamFailures > 0 && r.failures.ServedStale == 0 {
					t.Errorf("blackout exhausted retries but served no stale: %+v", r.failures)
				}
			}
		})
	}
}

// TestChaosDeterminism replays each scenario and demands an identical
// failure trace: the fault layer is a pure function of (plans, seeds,
// query order, virtual clock), so the same seed must reproduce the same
// chaos down to the per-query outcome.
func TestChaosDeterminism(t *testing.T) {
	for _, sc := range chaosMatrix() {
		t.Run(sc.name, func(t *testing.T) {
			a := runChaos(t, sc)
			b := runChaos(t, sc)
			if !reflect.DeepEqual(a.outcomes, b.outcomes) {
				t.Fatalf("failure trace not reproducible:\n run1: %v\n run2: %v", a.outcomes, b.outcomes)
			}
			if a.stats != b.stats {
				t.Fatalf("fault stats diverged:\n run1: %+v\n run2: %+v", a.stats, b.stats)
			}
			if a.failures != b.failures {
				t.Fatalf("failure counters diverged:\n run1: %+v\n run2: %+v", a.failures, b.failures)
			}
		})
	}
}
