package core

import (
	"fmt"
	"strings"
	"testing"

	"ecsdns/internal/cachesim"
	"ecsdns/internal/ecscache"
	"ecsdns/internal/traces"
)

// testConfig runs at a smaller scale than the default to keep the suite
// fast while preserving shapes, and at a smaller one still under the
// race detector: 0.03 is 40 s for the package there (0.04 is 53 s and
// has no room left beside the other packages of `go test -race ./...`;
// at 0.02 TestSection63Shape's population is too small for its classes
// to order).
func testConfig() Config {
	if raceEnabled {
		return Config{Scale: 0.03, Seed: 1}
	}
	return Config{Scale: 0.05, Seed: 1}
}

// skipFixedTraceUnderRace skips a test whose experiment replays the
// all-names trace, which Config.Scale does not size
// (traces.DefaultAllNames: 280 000 queries whatever the scale). Those
// four are 61 s of single-goroutine map work under the race detector
// (the package's race run goes from 40 to 100 s with them) and 11 s
// without it, where they still run (2 vCPU, go1.24.0).
func skipFixedTraceUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("replays the fixed-size all-names trace on one goroutine; runs in plain go test")
	}
}

func runExperiment(t *testing.T, id string, cfg Config) *Report {
	t.Helper()
	e, ok := Get(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	rep, err := e.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if rep.ID != id {
		t.Fatalf("report ID = %s", rep.ID)
	}
	if rep.String() == "" {
		t.Fatal("empty report")
	}
	return rep
}

// metric fetches a metric value or fails.
func metric(t *testing.T, rep *Report, name string) Metric {
	t.Helper()
	m, ok := rep.Metric(name)
	if !ok {
		t.Fatalf("%s: metric %q missing", rep.ID, name)
	}
	return m
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ext_adaptive", "ext_ecsfraction", "ext_evictions", "ext_labstudy", "ext_resilience", "ext_scale",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"section4", "section5", "section6_1", "section6_3", "table1", "table2",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments: %v", len(got), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry = %v, want %v", got, want)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("Get accepted unknown id")
	}
}

func TestSection5Shape(t *testing.T) {
	rep := runExperiment(t, "section5", testConfig())
	passive := metric(t, rep, "passive ECS resolvers (CDN dataset)")
	active := metric(t, rep, "active non-Google ECS egresses (scan)")
	overlap := metric(t, rep, "scan egresses also seen passively")
	// Passive discovers an order of magnitude more resolvers.
	if passive.Measured < 5*active.Measured {
		t.Errorf("passive %v not ≫ active %v", passive.Measured, active.Measured)
	}
	// Most scan-discovered resolvers are seen passively.
	if overlap.Measured < 0.6*active.Measured {
		t.Errorf("overlap %v too small vs active %v", overlap.Measured, active.Measured)
	}
	if overlap.Measured > active.Measured {
		t.Errorf("overlap exceeds active set")
	}
}

func TestTable1Shape(t *testing.T) {
	rep := runExperiment(t, "table1", testConfig())
	jam := metric(t, rep, "CDN: 32/jammed share of resolvers")
	v24 := metric(t, rep, "CDN: /24 share of resolvers")
	scan24 := metric(t, rep, "scan: /24 share of resolvers")
	if jam.Measured < 0.55 || jam.Measured > 0.85 {
		t.Errorf("CDN jammed share = %.2f, paper 0.72", jam.Measured)
	}
	if v24.Measured < 0.08 || v24.Measured > 0.30 {
		t.Errorf("CDN /24 share = %.2f, paper 0.18", v24.Measured)
	}
	if scan24.Measured < 0.70 {
		t.Errorf("scan /24 share = %.2f, paper 0.90", scan24.Measured)
	}
	if jam.Measured < v24.Measured {
		t.Error("CDN view must be jammed-/32-dominated")
	}
}

func TestSection61Shape(t *testing.T) {
	rep := runExperiment(t, "section6_1", testConfig())
	all := metric(t, rep, "ECS on all queries")
	host := metric(t, rep, "specific hostnames, caching disabled")
	interval := metric(t, rep, "30-min loopback probes")
	miss := metric(t, rep, "ECS on cache miss")
	root := metric(t, rep, "resolvers sending ECS to the root")
	// The all-queries class dominates by an order of magnitude.
	if all.Measured < 5*(host.Measured+interval.Measured+miss.Measured) {
		t.Errorf("all-queries class not dominant: %v vs %v/%v/%v",
			all.Measured, host.Measured, interval.Measured, miss.Measured)
	}
	within := func(m Metric, lo, hi float64) {
		if m.Measured < m.Paper*lo || m.Measured > m.Paper*hi+3 {
			t.Errorf("%s = %v, paper-scaled %v", m.Name, m.Measured, m.Paper)
		}
	}
	within(all, 0.7, 1.3)
	within(host, 0.6, 1.6)
	within(interval, 0.3, 2.0)
	if root.Measured < 1 {
		t.Error("no root violators found")
	}
}

func TestSection63Shape(t *testing.T) {
	rep := runExperiment(t, "section6_3", testConfig())
	correct := metric(t, rep, "correct behavior")
	ignore := metric(t, rep, "ignore scope entirely")
	long := metric(t, rep, "accept+cache prefixes >/24")
	cap22 := metric(t, rep, "cap prefixes and scopes at /22")
	private := metric(t, rep, "private-prefix misconfiguration")
	// The census is exact at cohort granularity because classification
	// is deterministic: every resolver lands in its ground-truth class.
	sc := testConfig().Scale
	exact := func(m Metric, paperCount int) {
		if int(m.Measured) != scaled(paperCount, sc) {
			t.Errorf("%s = %v, want %d", m.Name, m.Measured, scaled(paperCount, sc))
		}
	}
	exact(ignore, 103)
	exact(correct, 76)
	exact(long, 15)
	exact(cap22, 8)
	if private.Measured != 1 {
		t.Errorf("private-prefix = %v, want 1", private.Measured)
	}
	if ignore.Measured <= correct.Measured {
		t.Error("ignore-scope class must outnumber correct class")
	}
}

func TestFig1Shape(t *testing.T) {
	rep := runExperiment(t, "fig1", testConfig())
	med := metric(t, rep, "median blow-up, TTL 20 s")
	max20 := metric(t, rep, "max blow-up, TTL 20 s")
	max40 := metric(t, rep, "max blow-up, TTL 40 s")
	max60 := metric(t, rep, "max blow-up, TTL 60 s")
	if med.Measured < 2.5 || med.Measured > 6 {
		t.Errorf("median blow-up = %v, paper 4", med.Measured)
	}
	if max20.Measured < 8 {
		t.Errorf("max blow-up @20s = %v, paper 15.95", max20.Measured)
	}
	if !(max20.Measured < max40.Measured && max40.Measured < max60.Measured) {
		t.Errorf("blow-up not increasing with TTL: %v %v %v",
			max20.Measured, max40.Measured, max60.Measured)
	}
}

func TestFig2Shape(t *testing.T) {
	skipFixedTraceUnderRace(t)
	rep := runExperiment(t, "fig2", testConfig())
	full := metric(t, rep, "blow-up at 100% clients")
	ten := metric(t, rep, "blow-up at 10% clients")
	if full.Measured < 3 || full.Measured > 6 {
		t.Errorf("blow-up at 100%% = %v, paper 4.3", full.Measured)
	}
	if ten.Measured >= full.Measured {
		t.Error("blow-up must grow with client population")
	}
}

func TestFig3Shape(t *testing.T) {
	skipFixedTraceUnderRace(t)
	rep := runExperiment(t, "fig3", testConfig())
	plain := metric(t, rep, "hit rate without ECS, all clients")
	ecs := metric(t, rep, "hit rate with ECS, all clients")
	if plain.Measured < 60 || plain.Measured > 90 {
		t.Errorf("plain hit rate = %v%%, paper 76%%", plain.Measured)
	}
	if ecs.Measured < 15 || ecs.Measured > 45 {
		t.Errorf("ECS hit rate = %v%%, paper 30%%", ecs.Measured)
	}
	if ecs.Measured*2 > plain.Measured {
		t.Error("ECS must cut the hit rate by more than half")
	}
}

// TestBlowupHitsMatchServingCache holds §7's model to the cache that
// serves: on the traces the §7 experiments replay, Blowup's hits with
// and without ECS are exactly those of an unbounded ecscache honoring
// and ignoring scope. It takes every eighth public-CDN resolver, and
// the all-names traces (the fixed-size trace) in plain go test only.
func TestBlowupHitsMatchServingCache(t *testing.T) {
	cfg := testConfig()
	check := func(name string, recs []traces.Record) {
		t.Helper()
		res := cachesim.Blowup(recs, 0)
		for _, c := range []struct {
			mode ecscache.ScopeMode
			name string
			want int
		}{
			{ecscache.HonorScope, "honoring scope", res.HitsWithECS},
			{ecscache.IgnoreScope, "ignoring scope", res.HitsWithoutECS},
		} {
			got := cachesim.CacheReplay(recs, ecscache.Config{Mode: c.mode, ClampScopeToSource: true}).Stats.Hits
			if int(got) != c.want {
				t.Errorf("%s, %s: Blowup counts %d hits, the serving cache %d", name, c.name, c.want, got)
			}
		}
	}
	for i, tr := range traces.GeneratePublicCDN(publicCDNConfig(cfg)) {
		if i%8 == 0 {
			check(fmt.Sprintf("public-CDN resolver %d", i), tr.Records)
		}
	}
	if raceEnabled {
		return
	}
	tr := traces.GenerateAllNames(allNamesConfig(cfg))
	keep := cachesim.SampleClients(tr.Clients, 0.1, cfg.Seed)
	check("all-names, 10% of clients", cachesim.FilterClients(tr.Records, keep))
	deployed := ecsDeployment(tr.Records)
	for _, pct := range []int{0, 25, 50, 75, 100} {
		check(fmt.Sprintf("all-names, ECS at %d%% of SLDs", pct), deployed(pct))
	}
}

func TestTable2Shape(t *testing.T) {
	rep := runExperiment(t, "table2", testConfig())
	base := metric(t, rep, "baseline RTT (no ECS)")
	worst := metric(t, rep, "worst unroutable-prefix RTT")
	if worst.Measured < 3*base.Measured {
		t.Errorf("unroutable penalty too small: %v vs %v", worst.Measured, base.Measured)
	}
}

func TestFig4Fig5Shape(t *testing.T) {
	for _, tc := range []struct {
		id               string
		below, on, above float64
		tolBelow, tolOn  float64
	}{
		{"fig4", 8.0, 1.3, 90.7, 3, 3},
		{"fig5", 7.8, 19.5, 72.7, 3, 7},
	} {
		rep := runExperiment(t, tc.id, testConfig())
		below := metric(t, rep, "combinations below diagonal (ECS hurts)")
		on := metric(t, rep, "combinations on diagonal (ECS no help)")
		above := metric(t, rep, "combinations above diagonal (ECS helps)")
		if d := below.Measured - tc.below; d > tc.tolBelow || d < -tc.tolBelow {
			t.Errorf("%s below = %.1f%%, paper %.1f%%", tc.id, below.Measured, tc.below)
		}
		if d := on.Measured - tc.on; d > tc.tolOn || d < -tc.tolOn {
			t.Errorf("%s on = %.1f%%, paper %.1f%%", tc.id, on.Measured, tc.on)
		}
		if above.Measured < tc.above-8 {
			t.Errorf("%s above = %.1f%%, paper %.1f%%", tc.id, above.Measured, tc.above)
		}
	}
}

func TestFig6Fig7Shape(t *testing.T) {
	for _, tc := range []struct{ id string }{{"fig6"}, {"fig7"}} {
		rep := runExperiment(t, tc.id, testConfig())
		cliff := metric(t, rep, "cliff ratio")
		if cliff.Measured < 3 {
			t.Errorf("%s cliff ratio = %v, want dramatic degradation", tc.id, cliff.Measured)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	rep := runExperiment(t, "fig8", testConfig())
	e1 := metric(t, rep, "TCP handshake to misdirected edge E1")
	e2 := metric(t, rep, "TCP handshake to correct edge E2")
	penalty := metric(t, rep, "flattening penalty (apex vs direct www)")
	saved := metric(t, rep, "penalty removed by passing ECS on the flattened leg")
	if e1.Measured < 2*e2.Measured {
		t.Errorf("E1 %vms not clearly worse than E2 %vms", e1.Measured, e2.Measured)
	}
	if penalty.Measured < 200 {
		t.Errorf("penalty = %vms, want hundreds of ms", penalty.Measured)
	}
	if saved.Measured <= 0 {
		t.Errorf("mitigation saved %vms, want > 0", saved.Measured)
	}
}

func TestReportRendering(t *testing.T) {
	rep := runExperiment(t, "table2", testConfig())
	s := rep.String()
	for _, want := range []string{"table2", "paper", "measured", "127.0.0.1/32"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestDeterministicReports(t *testing.T) {
	a := runExperiment(t, "fig4", testConfig())
	b := runExperiment(t, "fig4", testConfig())
	if a.String() != b.String() {
		t.Fatal("identical configs produced different reports")
	}
}

// TestStudyReplays builds the study population twice from one seed:
// every resolver, and every client the CDN workload drives it from, must
// be placed at the same address. Go seeds its global source at random,
// so a draw from it moves them.
func TestStudyReplays(t *testing.T) {
	a, b := BuildStudy(testConfig()), BuildStudy(testConfig())
	if len(a.CDNResolvers) != len(b.CDNResolvers) {
		t.Fatalf("%d and %d CDN resolvers", len(a.CDNResolvers), len(b.CDNResolvers))
	}
	v6 := 0
	for i, ra := range a.CDNResolvers {
		rb := b.CDNResolvers[i]
		if ra.Addr() != rb.Addr() {
			t.Fatalf("resolver %d at %s in one build, %s in the other", i, ra.Addr(), rb.Addr())
		}
		for k := 0; k < 2; k++ {
			if ca, cb := a.clientFor(ra, k), b.clientFor(rb, k); ca != cb {
				t.Fatalf("resolver %d client %d: %s in one build, %s in the other", i, k, ca, cb)
			}
		}
		if ra.Addr().Is6() {
			v6++
		}
	}
	if v6 == 0 {
		t.Fatal("no IPv6 resolver in the population: nothing here is drawn")
	}
}

func TestScaledHelper(t *testing.T) {
	if scaled(100, 0.1) != 10 {
		t.Error("scaled(100, 0.1)")
	}
	if scaled(1, 0.01) != 1 {
		t.Error("scaled must floor at 1 for nonzero counts")
	}
	if scaled(0, 0.5) != 0 {
		t.Error("scaled(0) must be 0")
	}
}

func TestExtAdaptiveShape(t *testing.T) {
	rep := runExperiment(t, "ext_adaptive", testConfig())
	// The profiles' targets: the standard resolver conveys its /24, the
	// adaptive one ≈16 bits, and adapting costs at most 10 % more
	// upstream queries than the standard run.
	std := metric(t, rep, "mean conveyed bits, standard resolver")
	ad := metric(t, rep, "mean conveyed bits, adaptive resolver")
	if std.Measured != 24 {
		t.Errorf("standard resolver conveyed %v bits", std.Measured)
	}
	if ad.Measured < 16 || ad.Measured > 17 {
		t.Errorf("adaptive resolver conveyed %v bits, want ≈16", ad.Measured)
	}
	upStd := metric(t, rep, "upstream queries, standard")
	upAd := metric(t, rep, "upstream queries, adaptive")
	if upStd.Measured <= 0 {
		t.Errorf("the standard resolver sent %v upstream queries", upStd.Measured)
	}
	if diff := upAd.Measured - upStd.Measured; diff > upStd.Measured*0.1 {
		t.Errorf("adaptive upstream load %v vs %v", upAd.Measured, upStd.Measured)
	}
}

func TestExtECSFractionShape(t *testing.T) {
	skipFixedTraceUnderRace(t)
	rep := runExperiment(t, "ext_ecsfraction", testConfig())
	at0 := metric(t, rep, "blow-up with no ECS deployment")
	at100 := metric(t, rep, "blow-up with universal ECS deployment")
	if at0.Measured != 1 {
		t.Errorf("blow-up without ECS = %v, want exactly 1", at0.Measured)
	}
	if at100.Measured < 3 {
		t.Errorf("blow-up at full deployment = %v, want ≈4", at100.Measured)
	}
	// Monotonicity across the table rows.
	rows := rep.Tables[0].Rows
	prev := -1.0
	for _, r := range rows {
		var f float64
		if _, err := fmt.Sscanf(r[1], "%f", &f); err != nil {
			t.Fatalf("bad row %v", r)
		}
		if f < prev {
			t.Fatalf("blow-up not monotone in deployment: %v", rows)
		}
		prev = f
	}
}

func TestExtLabStudyShape(t *testing.T) {
	rep := runExperiment(t, "ext_labstudy", testConfig())
	m := metric(t, rep, "profiles classified as ground truth")
	if m.Measured != m.Paper {
		t.Errorf("lab study matched %v/%v profiles", m.Measured, m.Paper)
	}
}

func TestExtEvictionsShape(t *testing.T) {
	skipFixedTraceUnderRace(t)
	rep := runExperiment(t, "ext_evictions", testConfig())
	plain := metric(t, rep, "capacity for <0.5 evictions/100q, plain")
	ecs := metric(t, rep, "capacity for <0.5 evictions/100q, with ECS")
	ratio := metric(t, rep, "ECS/plain capacity ratio")
	if plain.Measured <= 0 || ecs.Measured <= 0 {
		t.Fatalf("thresholds not found: plain=%v ecs=%v", plain.Measured, ecs.Measured)
	}
	if ecs.Measured <= plain.Measured {
		t.Fatal("ECS cache must need more capacity than the plain cache")
	}
	// The capacity ratio tracks the fig2 blow-up factor (paper: 4.3).
	if ratio.Measured < 2 || ratio.Measured > 8 {
		t.Errorf("capacity ratio = %v, want the fig2 blow-up scale", ratio.Measured)
	}
}

// TestExtResilienceShape holds the pool to its targets: at least 99 %
// answered with one mirror dark and under a fragmentation storm, and a
// hedged p99 below the unhedged one under 50 % loss.
func TestExtResilienceShape(t *testing.T) {
	rep := runExperiment(t, "ext_resilience", testConfig())
	for _, name := range []string{"answer rate with one mirror dark", "answer rate under fragmentation storm"} {
		if m := metric(t, rep, name); m.Measured < 99 {
			t.Errorf("%s = %v%%, want >= 99%%", name, m.Measured)
		}
	}
	if m := metric(t, rep, "p99 speedup from hedging under 50% loss"); m.Measured <= 1 {
		t.Errorf("hedging under 50%% loss sped p99 up %v×, want > 1×", m.Measured)
	}
}

func TestExtScaleShape(t *testing.T) {
	rep := runExperiment(t, "ext_scale", testConfig())
	b1 := metric(t, rep, "blow-up factor at 1× population")
	b100 := metric(t, rep, "blow-up factor at 100× population")
	e1 := metric(t, rep, "premature evictions/100q at 1×, fixed capacity")
	e100 := metric(t, rep, "premature evictions/100q at 100×, fixed capacity")
	cross := metric(t, rep, "real-cache vs model evictions at 100×")
	// The blow-up factor keeps growing with the client pool (fig2's
	// curve does not flatten), so 100× must exceed 1×.
	if b100.Measured <= b1.Measured {
		t.Errorf("blow-up at 100× (%v) not above 1× (%v)", b100.Measured, b1.Measured)
	}
	// A capacity provisioned for 1× must collapse under 100× clients.
	if e100.Measured <= e1.Measured {
		t.Errorf("eviction rate at 100× (%v) not above 1× (%v)", e100.Measured, e1.Measured)
	}
	if e100.Measured < 1 {
		t.Errorf("eviction rate at 100× = %v/100q; fixed capacity should be under real pressure", e100.Measured)
	}
	// Cross-validation: the real cache and the standalone LRU model
	// (the table's last column) must agree on the order of eviction
	// pressure.
	var model float64
	for _, r := range rep.Tables[0].Rows {
		if r[0] == "100" {
			if _, err := fmt.Sscanf(r[len(r)-1], "%f", &model); err != nil {
				t.Fatalf("bad row %v", r)
			}
		}
	}
	if !(model > 0) || cross.Measured > 3*model || model > 3*cross.Measured {
		t.Errorf("real cache evictions %v vs model %v disagree beyond 3×", cross.Measured, model)
	}
}

func TestSection4Shape(t *testing.T) {
	rep := runExperiment(t, "section4", testConfig())
	dominant := metric(t, rep, "CDN: dominant-AS share")
	v6 := metric(t, rep, "CDN: IPv6 share")
	v6Clients := metric(t, rep, "all-names: v6 client share")
	if dominant.Measured < 0.55 || dominant.Measured > 0.85 {
		t.Errorf("dominant-AS share = %.2f, paper 0.74", dominant.Measured)
	}
	if v6.Measured < 0.01 || v6.Measured > 0.10 {
		t.Errorf("CDN IPv6 share = %.2f, paper 0.035", v6.Measured)
	}
	if v6Clients.Measured < 0.4 || v6Clients.Measured > 0.6 {
		t.Errorf("all-names v6 client share = %.2f, paper 0.51", v6Clients.Measured)
	}
}
