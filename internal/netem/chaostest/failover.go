package chaostest

import (
	"fmt"
	"net/netip"
	"runtime"
	"sort"
	"time"

	"testing"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/geo"
	"ecsdns/internal/netem"
	"ecsdns/internal/upstreams"
)

// FailoverScenario is one chaos configuration for the upstream pool:
// three authoritative mirrors of the same zone behind an
// upstreams.Pool, with independent fault plans per mirror plus a
// global plan. Blackout windows are offsets from the chaos phase
// start, exactly as in Scenario.
type FailoverScenario struct {
	Name string
	// Seed drives the world and every fault RNG; the pool itself is
	// RNG-free, so the whole run is a deterministic function of the
	// scenario value.
	Seed int64
	// Queries is the chaos-phase query count (default 100); Warm the
	// fault-free warmup count that seeds the RTT sampler and health
	// scores (default 20).
	Queries int
	Warm    int
	// QueryGap advances the virtual clock between chaos queries,
	// modeling request spacing — it is what lets breaker open windows
	// elapse mid-run.
	QueryGap time.Duration
	// GlobalFaults applies to every exchange; MirrorFaults[i] applies
	// to mirror i only.
	GlobalFaults netem.FaultPlan
	MirrorFaults []netem.FaultPlan
	// Priorities, when non-nil, sets per-mirror pool priority tiers
	// (defaults to all tier 0).
	Priorities []int
	// Pool switches, passed straight through.
	Hedge          bool
	DisableBreaker bool
}

// FailoverResult is the deterministic trace of one RunFailover
// execution.
type FailoverResult struct {
	Queries  int
	Answered int
	// Durations holds the pool's modeled completion time for every
	// chaos query, answered or not, in query order.
	Durations []time.Duration
	Counters  upstreams.Counters
	// Trace is the breaker transition log; States the final breaker
	// state per mirror.
	Trace  []upstreams.Transition
	States map[netip.Addr]upstreams.State
	Stats  netem.FaultStats
	// Mirrors are the three upstream addresses, in pool order.
	Mirrors []netip.Addr
}

// RunFailover executes one pool chaos scenario: three mirrors of the
// same zone are registered on a netem fabric, a fault-free warm phase
// seeds the pool's RTT sampler and health scores, the fault plans are
// installed, and the chaos queries run through pool.Exchange. The
// harness invariants hold for every scenario: each delivered answer is
// correct, the attempt and pick ledgers balance exactly, and no
// goroutines survive the run.
func RunFailover(tb testing.TB, sc FailoverScenario) FailoverResult {
	tb.Helper()
	queries := sc.Queries
	if queries <= 0 {
		queries = 100
	}
	warm := sc.Warm
	if warm <= 0 {
		warm = 20
	}
	before := runtime.NumGoroutine()

	w := geo.Build(geo.Config{Seed: sc.Seed, NumASes: 120, BlocksPerAS: 1})
	n := netem.New(w)
	cities := []string{"Frankfurt", "Chicago", "Tokyo"}
	var mirrors []netip.Addr
	for _, city := range cities {
		addr := w.AddrInCity(geo.CityIndex(city), 3, 53)
		auth := authority.NewServer(authority.Config{
			Addr: addr, ECSEnabled: true,
			Scope: authority.ScopeFixed(24), Now: n.Clock().Now,
		})
		z := authority.NewZone("fail.chaos.example.", 20)
		z.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: chaosAnswer})
		auth.AddZone(z)
		n.Register(addr, auth)
		mirrors = append(mirrors, addr)
	}

	ups := make([]upstreams.Upstream, len(mirrors))
	for i, m := range mirrors {
		ups[i] = upstreams.Upstream{Addr: m}
		if i < len(sc.Priorities) {
			ups[i].Priority = sc.Priorities[i]
		}
	}
	pool, err := upstreams.New(upstreams.Config{
		Upstreams: ups, Transport: n, Now: n.Clock().Now,
		Hedge: sc.Hedge, DisableBreaker: sc.DisableBreaker,
	})
	if err != nil {
		tb.Fatalf("%s: pool: %v", sc.Name, err)
	}
	client := w.AddrInCity(geo.CityIndex("Dublin"), 7, 10)
	name := func(i int) dnswire.Name {
		return dnswire.MustParseName(fmt.Sprintf("f%03d.fail.chaos.example.", i))
	}

	// Warm phase: fault-free queries seed the RTT sampler (the hedge
	// delay) and the per-upstream health scores.
	for i := 0; i < warm; i++ {
		q := dnswire.NewQuery(uint16(i+1), name(i), dnswire.TypeA)
		q.EDNS = dnswire.NewEDNS()
		if resp, _, err := pool.Exchange(client, q); err != nil || resp.RCode != dnswire.RCodeNoError {
			tb.Fatalf("%s: warm query %d failed: %v %v", sc.Name, i, resp, err)
		}
	}

	chaosStart := n.Clock().Now()
	n.SetFaults(shiftWindows(sc.GlobalFaults, chaosStart), sc.Seed)
	for i, mf := range sc.MirrorFaults {
		if i >= len(mirrors) || mf.IsZero() {
			continue
		}
		n.SetNodeFaults(mirrors[i], shiftWindows(mf, chaosStart), sc.Seed+int64(i)+1)
	}

	out := FailoverResult{Queries: queries, Mirrors: mirrors}
	for i := 0; i < queries; i++ {
		if sc.QueryGap > 0 {
			n.Clock().Advance(sc.QueryGap)
		}
		q := dnswire.NewQuery(uint16(1000+i), name(i), dnswire.TypeA)
		q.EDNS = dnswire.NewEDNS()
		resp, d, err := pool.Exchange(client, q)
		out.Durations = append(out.Durations, d)
		if err != nil {
			continue
		}
		if resp.RCode == dnswire.RCodeNoError && len(resp.Answers) > 0 {
			for _, rr := range resp.Answers {
				a, ok := rr.Data.(*dnswire.ARData)
				if !ok || a.Addr != chaosAnswer {
					tb.Fatalf("%s: wrong answer leaked through the pool: %v", sc.Name, rr)
				}
			}
			out.Answered++
		}
	}

	pool.Wait()
	out.Counters = pool.Counters()
	out.Trace = pool.BreakerTrace()
	out.States = pool.BreakerStates()
	out.Stats = n.FaultStats()

	// Invariants: both pool ledgers must balance exactly once every
	// exchange has returned, and the run must leave no goroutines.
	if !out.Counters.Balanced() {
		tb.Errorf("%s: pool accounting leak: %+v", sc.Name, out.Counters)
	}
	waitGoroutines(tb, sc.Name, before)
	return out
}

// DurationPercentile returns the p-quantile (0 ≤ p ≤ 1) of ds by
// nearest-rank on a sorted copy.
func DurationPercentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
