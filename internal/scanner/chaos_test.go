package scanner

import (
	"net/netip"
	"testing"
	"time"

	"ecsdns/internal/geo"
	"ecsdns/internal/netem"
	"ecsdns/internal/resolver"
)

// chaosScenario is one fault configuration of the scan's chaos matrix:
// faults applies to every exchange, authFaults only to the authority.
// The scan starts at SimStart, so blackout windows are offsets from its
// start.
type chaosScenario struct {
	name               string
	faults, authFaults netem.FaultPlan
	seed               int64
}

// chaosMatrix is the resolver's chaos matrix: every individual failure
// mode the paper's measurements met in the wild, plus a combined storm.
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

// scanChaos is the outcome of one runScanChaos execution.
type scanChaos struct {
	responding int
	stats      netem.FaultStats
}

// runScanChaos scans 24 open resolvers on newScanRig's fabric under the
// scenario's faults; no more of them may respond than were probed.
func runScanChaos(t *testing.T, sc chaosScenario) scanChaos {
	t.Helper()
	rg := newScanRig(t)
	var ingresses []netip.Addr
	for i := 0; i < 24; i++ {
		r := rg.addResolver(geo.Cities[i%len(geo.Cities)].Name, 20+i, resolver.GoogleLikeProfile())
		ingresses = append(ingresses, r.Addr())
	}
	rg.net.SetFaults(sc.faults, sc.seed)
	rg.net.SetNodeFaults(rg.authAddr, sc.authFaults, sc.seed+1)

	scan := &Scan{Exchange: rg.exchange, Zone: rg.zone, Seed: sc.seed + 99}
	result := scan.Run(ingresses, rg.logs)
	out := scanChaos{responding: len(result.Responding), stats: rg.net.FaultStats()}
	if out.responding > result.Probed {
		t.Errorf("%s: %d responders from %d probed", sc.name, out.responding, result.Probed)
	}
	return out
}

// TestScanChaosMatrix runs every scenario against the in-process scan;
// runScanChaos asserts that no more resolvers respond than were probed.
func TestScanChaosMatrix(t *testing.T) {
	for _, sc := range chaosMatrix() {
		t.Run(sc.name, func(t *testing.T) {
			r := runScanChaos(t, sc)
			if r.responding == 0 && sc.name != "loss-50" {
				t.Errorf("no resolver responded under %q: %+v", sc.name, r)
			}
		})
	}
}

// TestScanDeterminism replays a scenario through the scan (its probes go
// in target order, so the RNG draw order, and hence the trace, is
// deterministic) and compares the results.
func TestScanDeterminism(t *testing.T) {
	sc := chaosScenario{
		name:       "serial-combined",
		faults:     netem.FaultPlan{Loss: 0.2},
		authFaults: netem.FaultPlan{ServFail: 0.3},
		seed:       21,
	}
	a := runScanChaos(t, sc)
	b := runScanChaos(t, sc)
	if a != b {
		t.Fatalf("scan runs diverged:\n run1: %+v\n run2: %+v", a, b)
	}
}
