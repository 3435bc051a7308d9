package chaostest

import (
	"reflect"
	"testing"

	"ecsdns/internal/netem"
)

// TestResolverChaosMatrix runs every scenario against the resolver;
// RunResolver enforces the harness invariants internally, and the
// per-scenario assertions here pin the failure mode each scenario is
// supposed to exercise.
func TestResolverChaosMatrix(t *testing.T) {
	for _, sc := range Matrix() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			r := RunResolver(t, sc)
			if r.ByClass[OutcomeAnswered] == 0 {
				t.Errorf("no query answered under %q: %v", sc.Name, r.ByClass)
			}
			switch sc.Name {
			case "loss-10", "loss-50":
				if r.Stats.Lost == 0 {
					t.Errorf("loss scenario injected no loss: %+v", r.Stats)
				}
			case "jitter":
				if r.Stats.Delayed == 0 || r.Stats.ExtraLatency == 0 {
					t.Errorf("jitter scenario added no latency: %+v", r.Stats)
				}
				// Latency-only faults must not fail anything.
				if r.ByClass[OutcomeAnswered] != len(r.Outcomes) {
					t.Errorf("jitter alone caused failures: %v", r.ByClass)
				}
			case "truncation-storm":
				if r.Stats.Truncated == 0 || r.Failures.UpstreamTruncated == 0 {
					t.Errorf("no truncations seen: stats=%+v failures=%+v", r.Stats, r.Failures)
				}
			case "servfail-injection":
				if r.Stats.ServFails == 0 || r.Failures.UpstreamServFails == 0 {
					t.Errorf("no servfails seen: stats=%+v failures=%+v", r.Stats, r.Failures)
				}
			case "corruption":
				if r.Stats.Corrupted == 0 || r.Failures.UpstreamMismatched == 0 {
					t.Errorf("no corruption seen: stats=%+v failures=%+v", r.Stats, r.Failures)
				}
			case "blackout":
				if r.Stats.Blackouts == 0 {
					t.Errorf("blackout window never hit: %+v", r.Stats)
				}
				// The warm half of the namespace must survive the
				// blackout via stale serving or cache.
				if r.Failures.UpstreamFailures > 0 && r.Failures.ServedStale == 0 {
					t.Errorf("blackout exhausted retries but served no stale: %+v", r.Failures)
				}
			}
		})
	}
}

// TestScanChaosMatrix runs every scenario against the in-process scan;
// RunScan asserts that no more resolvers respond than were probed.
func TestScanChaosMatrix(t *testing.T) {
	for _, sc := range Matrix() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			r := RunScan(t, sc)
			if r.Responding == 0 && sc.Name != "loss-50" {
				t.Errorf("no resolver responded under %q: %+v", sc.Name, r)
			}
		})
	}
}

// TestChaosDeterminism replays each resolver scenario and demands an
// identical failure trace: the fault layer is a pure function of
// (plans, seeds, query order, virtual clock), so the same seed must
// reproduce the same chaos down to the per-query outcome.
func TestChaosDeterminism(t *testing.T) {
	for _, sc := range Matrix() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			a := RunResolver(t, sc)
			b := RunResolver(t, sc)
			if !reflect.DeepEqual(a.Outcomes, b.Outcomes) {
				t.Fatalf("failure trace not reproducible:\n run1: %v\n run2: %v", a.Outcomes, b.Outcomes)
			}
			if a.Stats != b.Stats {
				t.Fatalf("fault stats diverged:\n run1: %+v\n run2: %+v", a.Stats, b.Stats)
			}
			if a.Failures != b.Failures {
				t.Fatalf("failure counters diverged:\n run1: %+v\n run2: %+v", a.Failures, b.Failures)
			}
		})
	}
}

// TestScanDeterminism replays a scenario through the scan (its probes
// go in target order, so the RNG draw order, and hence the trace, is
// deterministic) and compares the results.
func TestScanDeterminism(t *testing.T) {
	sc := Scenario{
		Name:       "serial-combined",
		Faults:     netem.FaultPlan{Loss: 0.2},
		AuthFaults: netem.FaultPlan{ServFail: 0.3},
		Seed:       21,
	}
	a := RunScan(t, sc)
	b := RunScan(t, sc)
	if a != b {
		t.Fatalf("scan runs diverged:\n run1: %+v\n run2: %+v", a, b)
	}
}
