// Package chaostest runs failure-scenario matrices against the
// recursive resolver and the in-process scan over a
// fault-injected netem fabric, asserting the invariants that must
// survive any failure mix: every query is accounted for, every answer
// is either correct or an explicit failure, counters balance, and no
// goroutines leak. Because the fault layer draws from seeded RNGs over
// the virtual clock, a scenario's failure trace is a deterministic
// function of its seed — the same chaos replays exactly.
package chaostest

import (
	"fmt"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/geo"
	"ecsdns/internal/netem"
	"ecsdns/internal/resolver"
	"ecsdns/internal/scanner"
)

// Scenario is one chaos configuration. Blackout windows in Faults and
// AuthFaults are interpreted as offsets from the chaos phase start
// (i.e. a window {SimStart+1s, SimStart+4s} blacks out seconds 1–4 of
// the faulted phase, regardless of how long warmup took).
type Scenario struct {
	Name string
	// Faults is the global plan applied to every exchange.
	Faults netem.FaultPlan
	// AuthFaults, when non-zero, applies only to the authority node —
	// the "flaky authoritative" case where the client leg stays clean.
	AuthFaults netem.FaultPlan
	// Queries is the number of chaos-phase client queries RunResolver
	// issues (default 60).
	Queries int
	// Targets is the resolver-population size RunScan scans (default
	// 24).
	Targets int
	// Seed drives the world, the fault RNGs, and the resolver.
	Seed int64
}

// Matrix returns the standard chaos matrix: every individual failure
// mode the paper's measurements met in the wild, plus a combined storm.
func Matrix() []Scenario {
	blackout := func(start, dur time.Duration) netem.Window {
		return netem.Window{Start: netem.SimStart.Add(start), End: netem.SimStart.Add(start + dur)}
	}
	return []Scenario{
		{Name: "loss-10", Faults: netem.FaultPlan{Loss: 0.10}, Seed: 1},
		{Name: "loss-50", Faults: netem.FaultPlan{Loss: 0.50}, Seed: 2},
		{Name: "jitter", Faults: netem.FaultPlan{Latency: 30 * time.Millisecond, Jitter: 50 * time.Millisecond}, Seed: 3},
		{Name: "truncation-storm", AuthFaults: netem.FaultPlan{Truncate: 0.8}, Seed: 4},
		{Name: "servfail-injection", AuthFaults: netem.FaultPlan{ServFail: 0.5}, Seed: 5},
		{Name: "corruption", AuthFaults: netem.FaultPlan{Corrupt: 0.4}, Seed: 6},
		{Name: "blackout", AuthFaults: netem.FaultPlan{Blackouts: []netem.Window{blackout(1*time.Second, 3*time.Second)}}, Seed: 7},
		{Name: "combined", Faults: netem.FaultPlan{Loss: 0.15, Latency: 10 * time.Millisecond, Jitter: 20 * time.Millisecond},
			AuthFaults: netem.FaultPlan{Truncate: 0.2, ServFail: 0.15, Corrupt: 0.1,
				Blackouts: []netem.Window{blackout(2*time.Second, 2*time.Second)}}, Seed: 8},
	}
}

// Outcome classes for one client query under chaos.
const (
	OutcomeAnswered = "answered" // NoError with the correct answer
	OutcomeServFail = "servfail" // explicit SERVFAIL
	OutcomeTrunc    = "truncated"
	OutcomeCorrupt  = "corrupt" // transaction-ID mismatch at the client
	OutcomeLost     = "lost"    // client leg lost in transit
)

// ResolverResult is the failure trace of one RunResolver execution.
type ResolverResult struct {
	// Outcomes is the per-query outcome class, in query order — the
	// reproducible failure trace.
	Outcomes []string
	// ByClass tallies Outcomes.
	ByClass map[string]int
	// Stats is the fault layer's view; Failures the resolver's.
	Stats    netem.FaultStats
	Failures resolver.FailureCounters
}

// chaosAnswer is the rig zone's wildcard A record; a NoError answer
// carrying anything else is corruption leaking through.
var chaosAnswer = netip.MustParseAddr("192.0.2.80")

// RunResolver executes one scenario against a single resolver: a
// fault-free warm phase populates the cache, the entries expire, the
// fault plans are installed, and Queries chaos-phase queries (half for
// warmed names, half for fresh ones) are classified and checked against
// the harness invariants.
func RunResolver(tb testing.TB, sc Scenario) ResolverResult {
	tb.Helper()
	queries := sc.Queries
	if queries <= 0 {
		queries = 60
	}

	w := geo.Build(geo.Config{Seed: sc.Seed, NumASes: 120, BlocksPerAS: 1})
	n := netem.New(w)
	authAddr := w.AddrInCity(geo.CityIndex("Frankfurt"), 3, 53)
	auth := authority.NewServer(authority.Config{
		Addr: authAddr, ECSEnabled: true,
		Scope: authority.ScopeFixed(24), Now: n.Clock().Now,
	})
	z := authority.NewZone("chaos.example.", 20)
	z.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: chaosAnswer})
	auth.AddZone(z)
	n.Register(authAddr, auth)

	dir := resolver.NewDirectory()
	dir.Add("chaos.example.", authAddr)
	res := resolver.New(resolver.Config{
		Addr:      w.AddrInCity(geo.CityIndex("London"), 5, 53),
		Transport: n, Now: n.Clock().Now, Directory: dir,
		Profile: resolver.GoogleLikeProfile(), Seed: sc.Seed,
	})
	n.Register(res.Addr(), res)
	client := w.AddrInCity(geo.CityIndex("Dublin"), 7, 10)

	name := func(i int) dnswire.Name {
		return dnswire.MustParseName(fmt.Sprintf("q%03d.chaos.example.", i))
	}

	// Warm phase: half the names get cached, fault-free.
	warm := queries / 2
	for i := 0; i < warm; i++ {
		q := dnswire.NewQuery(uint16(i+1), name(i), dnswire.TypeA)
		resp, _, err := n.Exchange(client, res.Addr(), q)
		if err != nil || resp.RCode != dnswire.RCodeNoError || len(resp.Answers) == 0 {
			tb.Fatalf("%s: warm query %d failed: %v %v", sc.Name, i, resp, err)
		}
	}
	// Expire the warm entries (zone TTL 20s) so chaos-phase hits on
	// them must either re-resolve or serve stale.
	n.Clock().Advance(25 * time.Second)

	chaosStart := n.Clock().Now()
	n.SetFaults(shiftWindows(sc.Faults, chaosStart), sc.Seed)
	n.SetNodeFaults(authAddr, shiftWindows(sc.AuthFaults, chaosStart), sc.Seed+1)

	res0 := ResolverResult{ByClass: make(map[string]int)}
	for i := 0; i < queries; i++ {
		q := dnswire.NewQuery(uint16(1000+i), name(i%max(warm*2, 1)), dnswire.TypeA)
		resp, _, err := n.Exchange(client, res.Addr(), q)
		class := classify(tb, sc.Name, q, resp, err)
		res0.Outcomes = append(res0.Outcomes, class)
		res0.ByClass[class]++
	}
	res0.Stats = n.FaultStats()
	res0.Failures = res.Failures()

	// Invariants: every query classified (classify fails the test on an
	// unaccountable outcome); counters balance.
	if got := len(res0.Outcomes); got != queries {
		tb.Fatalf("%s: %d outcomes for %d queries", sc.Name, got, queries)
	}
	client0, _ := res.Counters()
	if want := int64(warm + queries - res0.ByClass[OutcomeLost]); client0 != want {
		tb.Errorf("%s: resolver served %d client queries, want %d (lost client legs excluded)",
			sc.Name, client0, want)
	}
	f := res0.Failures
	if f.UpstreamFailures != f.ServedStale+f.ServFailsReturned {
		tb.Errorf("%s: failure accounting leaks: exhausted=%d stale=%d servfail=%d",
			sc.Name, f.UpstreamFailures, f.ServedStale, f.ServFailsReturned)
	}
	return res0
}

// classify buckets one client-side query outcome, failing the test on
// anything that is neither a correct answer nor an explicit failure.
func classify(tb testing.TB, scenario string, q *dnswire.Message, resp *dnswire.Message, err error) string {
	tb.Helper()
	switch {
	case err != nil:
		return OutcomeLost
	case resp.ID != q.ID:
		return OutcomeCorrupt
	case resp.Truncated:
		return OutcomeTrunc
	case resp.RCode == dnswire.RCodeServFail:
		return OutcomeServFail
	case resp.RCode == dnswire.RCodeNoError && len(resp.Answers) > 0:
		for _, rr := range resp.Answers {
			a, ok := rr.Data.(*dnswire.ARData)
			if !ok || a.Addr != chaosAnswer {
				tb.Fatalf("%s: wrong answer leaked through: %v", scenario, rr)
			}
		}
		return OutcomeAnswered
	default:
		tb.Fatalf("%s: unaccountable outcome: rcode=%v answers=%d tc=%v",
			scenario, resp.RCode, len(resp.Answers), resp.Truncated)
		return ""
	}
}

// ScanResult is the outcome of one RunScan execution.
type ScanResult struct {
	Responding int
	Stats      netem.FaultStats
}

// RunScan executes one scenario against the in-process scan: a
// population of open resolvers over the faulted fabric is probed by
// scanner.Scan, and no more of them may respond than were probed.
func RunScan(tb testing.TB, sc Scenario) ScanResult {
	tb.Helper()
	targets := sc.Targets
	if targets <= 0 {
		targets = 24
	}

	w := geo.Build(geo.Config{Seed: sc.Seed, NumASes: 120, BlocksPerAS: 1})
	n := netem.New(w)
	zone := dnswire.Name("scan.chaos.example.")
	authAddr := w.AddrInCity(geo.CityIndex("Cleveland"), 3, 53)
	auth := authority.NewServer(authority.Config{
		Addr: authAddr, ECSEnabled: true,
		Scope: authority.ScopeFixed(24), Now: n.Clock().Now,
	})
	z := authority.NewZone(zone, 30)
	z.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.53")})
	auth.AddZone(z)
	logs := &scanner.LogBuffer{}
	auth.SetLog(logs.Append)
	n.Register(authAddr, auth)

	dir := resolver.NewDirectory()
	dir.Add(zone, authAddr)
	var ingresses []netip.Addr
	for i := 0; i < targets; i++ {
		r := resolver.New(resolver.Config{
			Addr:      w.AddrInCity(i%len(geo.Cities), 20+i, 53),
			Transport: n, Now: n.Clock().Now, Directory: dir,
			Profile: resolver.GoogleLikeProfile(), Seed: sc.Seed + int64(i),
		})
		n.Register(r.Addr(), r)
		ingresses = append(ingresses, r.Addr())
	}

	chaosStart := n.Clock().Now()
	n.SetFaults(shiftWindows(sc.Faults, chaosStart), sc.Seed)
	n.SetNodeFaults(authAddr, shiftWindows(sc.AuthFaults, chaosStart), sc.Seed+1)

	source := w.AddrInCity(geo.CityIndex("Cleveland"), 2, 9)
	scan := &scanner.Scan{
		Exchange: func(to netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
			resp, _, err := n.Exchange(source, to, q)
			return resp, err
		},
		Zone: zone,
		Seed: sc.Seed + 99,
	}
	result := scan.Run(ingresses, logs)
	out := ScanResult{Responding: len(result.Responding), Stats: n.FaultStats()}
	if out.Responding > result.Probed {
		tb.Errorf("%s: %d responders from %d probed", sc.Name, out.Responding, result.Probed)
	}
	return out
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

// waitGoroutines gives worker goroutines a grace period to exit, then
// fails on a leak.
func waitGoroutines(tb testing.TB, scenario string, before int) {
	tb.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= before {
			return
		}
		if time.Now().After(deadline) {
			tb.Errorf("%s: goroutine leak: %d before, %d after", scenario, before, now)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}
