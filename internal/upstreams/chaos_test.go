package upstreams

import (
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/geo"
	"ecsdns/internal/netem"
)

// failoverScenario is one chaos configuration for the pool: three
// authoritative mirrors of one zone on a netem fabric behind a Pool.
type failoverScenario struct {
	name string
	// seed drives the world and every fault RNG; the pool itself is
	// RNG-free, so a run is a deterministic function of the scenario.
	seed int64
	// queries is the chaos-phase query count; queryGap advances the
	// virtual clock before each, which is what lets breaker open
	// windows elapse mid-run.
	queries  int
	queryGap time.Duration
	// global applies to every exchange. dark blacks out the first
	// mirror for that long from the chaos phase start.
	global netem.FaultPlan
	dark   time.Duration
	// priorities, when non-nil, sets the mirrors' priority tiers.
	priorities []int
	hedge      bool
	noBreaker  bool
}

// failoverRun is the deterministic trace of one runFailover execution.
type failoverRun struct {
	answered int
	// durations holds the pool's modeled completion time for every chaos
	// query, answered or not, in query order.
	durations []time.Duration
	counters  Counters
	trace     []Transition
	stats     netem.FaultStats
	mirrors   []netip.Addr
}

// failoverAnswer is the mirrors' wildcard A record.
var failoverAnswer = netip.MustParseAddr("192.0.2.80")

// runFailover executes one pool chaos scenario: three mirrors of the
// same zone are registered on a netem fabric, 20 fault-free queries seed
// the pool's RTT sampler and health scores, the fault plans are
// installed, and the chaos queries run through pool.Exchange. Every
// delivered answer must be correct, the attempt and pick ledgers must
// balance exactly, and no goroutine may outlive the run.
func runFailover(t *testing.T, sc failoverScenario) failoverRun {
	t.Helper()
	before := runtime.NumGoroutine()
	w := geo.Build(geo.Config{Seed: sc.seed, NumASes: 120, BlocksPerAS: 1})
	n := netem.New(w)
	var mirrors []netip.Addr
	ups := make([]Upstream, 3)
	for i, city := range []string{"Frankfurt", "Chicago", "Tokyo"} {
		addr := w.AddrInCity(geo.CityIndex(city), 3, 53)
		auth := authority.NewServer(authority.Config{
			Addr: addr, ECSEnabled: true,
			Scope: authority.ScopeFixed(24), Now: n.Clock().Now,
		})
		z := authority.NewZone("fail.chaos.example.", 20)
		z.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: failoverAnswer})
		auth.AddZone(z)
		n.Register(addr, auth)
		mirrors = append(mirrors, addr)
		ups[i] = Upstream{Addr: addr}
		if i < len(sc.priorities) {
			ups[i].Priority = sc.priorities[i]
		}
	}
	pool, err := New(Config{
		Upstreams: ups, Transport: n, Now: n.Clock().Now,
		Hedge: sc.hedge, DisableBreaker: sc.noBreaker,
	})
	if err != nil {
		t.Fatalf("%s: pool: %v", sc.name, err)
	}
	client := w.AddrInCity(geo.CityIndex("Dublin"), 7, 10)
	ask := func(i int, id uint16) (*dnswire.Message, time.Duration, error) {
		q := dnswire.NewQuery(id, dnswire.MustParseName(fmt.Sprintf("f%03d.fail.chaos.example.", i)), dnswire.TypeA)
		q.EDNS = dnswire.NewEDNS()
		return pool.Exchange(client, q)
	}

	// Warm phase: fault-free queries seed the RTT sampler (the hedge
	// delay) and the per-upstream health scores.
	for i := 0; i < 20; i++ {
		if resp, _, err := ask(i, uint16(i+1)); err != nil || resp.RCode != dnswire.RCodeNoError {
			t.Fatalf("%s: warm query %d failed: %v %v", sc.name, i, resp, err)
		}
	}

	start := n.Clock().Now()
	n.SetFaults(sc.global, sc.seed)
	if sc.dark > 0 {
		dark := netem.Window{Start: start, End: start.Add(sc.dark)}
		n.SetNodeFaults(mirrors[0], netem.FaultPlan{Blackouts: []netem.Window{dark}}, sc.seed+1)
	}

	out := failoverRun{mirrors: mirrors}
	for i := 0; i < sc.queries; i++ {
		n.Clock().Advance(sc.queryGap)
		resp, d, err := ask(i, uint16(1000+i))
		out.durations = append(out.durations, d)
		if err != nil || resp.RCode != dnswire.RCodeNoError || len(resp.Answers) == 0 {
			continue
		}
		for _, rr := range resp.Answers {
			if a, ok := rr.Data.(*dnswire.ARData); !ok || a.Addr != failoverAnswer {
				t.Fatalf("%s: wrong answer leaked through the pool: %v", sc.name, rr)
			}
		}
		out.answered++
	}

	pool.Wait()
	out.counters = checkCounters(t, pool)
	out.trace = pool.BreakerTrace()
	out.stats = n.FaultStats()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("%s: goroutine leak: %d before, %d after", sc.name, before, runtime.NumGoroutine())
			break
		}
	}
	return out
}

// quantile returns the p-quantile (0 ≤ p ≤ 1) of ds by nearest rank.
func quantile(ds []time.Duration, p float64) time.Duration {
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	return sorted[int(p*float64(len(sorted)-1))]
}

// TestChaosBlackoutFailover blacks out one of three mirrors for the
// whole chaos phase: the pool must keep the answer rate at ≥99% by
// failing over, with zero accounting leaks.
func TestChaosBlackoutFailover(t *testing.T) {
	res := runFailover(t, failoverScenario{
		name: "blackout-failover", seed: 11, queries: 100, dark: time.Hour,
	})
	if res.answered < 99 {
		t.Fatalf("answered %d/100 with one mirror dark; want >= 99", res.answered)
	}
	if res.counters.Failovers == 0 {
		t.Fatalf("blackout produced no failovers: %+v", res.counters)
	}
	// The dark mirror must not silently keep absorbing attempts: either
	// its breaker gated it, or health scoring steered picks away — in
	// both cases failures stay bounded well below the query count.
	if res.counters.Failed > 100/2 {
		t.Fatalf("dark mirror kept absorbing attempts: %+v", res.counters)
	}
}

// TestChaosHedgeUnderLoss runs the same 50%-loss storm twice with the
// same seed — hedging off, then on — and requires the hedged tail (p99
// of the pool's modeled completion times) to be strictly faster. A lost
// attempt costs a full loss timeout, so racing a second upstream after
// the adaptive delay must cut the tail.
func TestChaosHedgeUnderLoss(t *testing.T) {
	// The breaker is off so the comparison is pure hedging: with it on,
	// breaker refusals cap the cost of total-failure queries the same
	// way in both runs and flatten the tails together.
	base := failoverScenario{
		name: "hedge-under-loss", seed: 21, queries: 200,
		global:    netem.FaultPlan{Loss: 0.5},
		noBreaker: true,
	}
	unhedged := runFailover(t, base)

	hedged := base
	hedged.name = "hedge-under-loss-hedged"
	hedged.hedge = true
	hw := runFailover(t, hedged)

	if hw.counters.Hedges == 0 {
		t.Fatalf("50%% loss never triggered a hedge: %+v", hw.counters)
	}
	p99u := quantile(unhedged.durations, 0.99)
	p99h := quantile(hw.durations, 0.99)
	t.Logf("p99 unhedged=%v hedged=%v (p50 %v vs %v; hedges=%d)",
		p99u, p99h, quantile(unhedged.durations, 0.50),
		quantile(hw.durations, 0.50), hw.counters.Hedges)
	if p99h >= p99u {
		t.Fatalf("hedging did not cut the tail: p99 hedged=%v >= unhedged=%v", p99h, p99u)
	}
	if hw.answered < unhedged.answered {
		t.Fatalf("hedging lost answers: %d < %d", hw.answered, unhedged.answered)
	}
}

// TestChaosFragmentationStorm inflates every response past the
// fragmentation threshold and drops a share of the resulting fragments:
// the pool must walk the payload ladder (frag-lost at 4096, truncated
// below the inflated size at 1232) down to TCP, where size faults cannot
// reach, and recover every answer.
func TestChaosFragmentationStorm(t *testing.T) {
	res := runFailover(t, failoverScenario{
		name: "fragmentation-storm", seed: 31, queries: 100,
		global: netem.FaultPlan{Payload: 2000, FragLoss: 0.4},
	})
	if res.answered < 99 {
		t.Fatalf("answered %d/100 under fragmentation storm; want >= 99", res.answered)
	}
	if res.counters.LadderSteps == 0 || res.counters.TCPFallbacks == 0 {
		t.Fatalf("storm never drove the ladder to TCP: %+v", res.counters)
	}
	if res.stats.SizeTruncated == 0 {
		t.Fatalf("no response was size-truncated: %+v", res.stats)
	}
	if res.stats.FragDrops == 0 {
		t.Fatalf("no fragment was dropped: %+v", res.stats)
	}
}

// flappingScenario pins the flapping mirror into its own priority tier
// so the pool keeps coming back to it: the breaker — not health
// steering — must be what sheds the load, and it must recover once the
// mirror comes back. The run (200 queries 200ms apart) outlasts the 15s
// blackout and the breaker's 30s open window.
var flappingScenario = failoverScenario{
	name: "flapping-upstream", seed: 41, queries: 200,
	queryGap:   200 * time.Millisecond,
	dark:       15 * time.Second,
	priorities: []int{0, 1, 1},
}

// TestChaosFlappingUpstream drives the full breaker lifecycle under a
// flapping mirror and then replays the identical scenario, requiring
// transition traces, durations, and counters to match exactly — the
// replay-identity guarantee that makes chaos failures debuggable.
func TestChaosFlappingUpstream(t *testing.T) {
	res := runFailover(t, flappingScenario)
	if res.answered < 199 {
		t.Fatalf("answered %d/200 under flapping mirror; want >= 199", res.answered)
	}
	if res.counters.BreakerTrips == 0 {
		t.Fatalf("flapping mirror never tripped its breaker: %+v", res.counters)
	}
	var opened, closedAgain bool
	for _, tr := range res.trace {
		if tr.Upstream != res.mirrors[0] {
			continue
		}
		if tr.To == Open {
			opened = true
		}
		if opened && tr.To == Closed {
			closedAgain = true
		}
	}
	if !opened || !closedAgain {
		t.Fatalf("breaker lifecycle incomplete (opened=%v recovered=%v): %v", opened, closedAgain, res.trace)
	}

	// Replay: the same scenario must reproduce the exact same trace.
	replay := runFailover(t, flappingScenario)
	if !reflect.DeepEqual(res.trace, replay.trace) {
		t.Fatalf("breaker trace not replay-identical:\n run 1: %v\n run 2: %v", res.trace, replay.trace)
	}
	if !reflect.DeepEqual(res.durations, replay.durations) {
		t.Fatal("modeled durations not replay-identical")
	}
	if res.counters != replay.counters {
		t.Fatalf("counters not replay-identical:\n run 1: %+v\n run 2: %+v", res.counters, replay.counters)
	}
}
