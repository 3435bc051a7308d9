package cachesim

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
	"ecsdns/internal/traces"
)

var simStart = time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC)

// rec builds a trace record at second `sec` for client `c` (last /24
// byte pattern) and hostname index h.
func rec(sec int, subnet byte, h int, ttl uint32, scope uint8) traces.Record {
	return traces.Record{
		Time:   simStart.Add(time.Duration(sec) * time.Second),
		Client: netip.AddrFrom4([4]byte{10, 0, subnet, 1}),
		Name:   dnswire.Name(fmt.Sprintf("h%d.example.", h)),
		Type:   dnswire.TypeA,
		HasECS: true,
		Source: 24,
		Scope:  scope,
		TTL:    ttl,
	}
}

func TestLiveSetExactCounting(t *testing.T) {
	s := newLiveSet()
	a, b := key{name: "a."}, key{name: "b."}
	if s.touch(a, 0, 10*time.Second) {
		t.Fatal("first touch must miss")
	}
	if !s.touch(a, 5*time.Second, 10*time.Second) {
		t.Fatal("touch within TTL must hit")
	}
	if s.touch(a, 10*time.Second, 10*time.Second) {
		t.Fatal("touch at expiry must miss")
	}
	s.touch(b, 11*time.Second, 10*time.Second)
	if s.max != 2 {
		t.Fatalf("max = %d, want 2", s.max)
	}
}

func TestBlowupDistinctSubnetsGrowCache(t *testing.T) {
	// Four subnets querying one hostname inside one TTL window: ECS
	// cache holds 4 entries, plain cache 1.
	var recs []traces.Record
	for i := 0; i < 4; i++ {
		recs = append(recs, rec(i, byte(i), 0, 20, 24))
	}
	r := Blowup(recs, 0)
	if r.MaxWithECS != 4 || r.MaxWithoutECS != 1 {
		t.Fatalf("sizes = %d/%d, want 4/1", r.MaxWithECS, r.MaxWithoutECS)
	}
	if r.Factor() != 4 {
		t.Fatalf("factor = %v", r.Factor())
	}
	// Plain cache hits on the three repeats.
	if r.HitsWithoutECS != 3 || r.HitsWithECS != 0 {
		t.Fatalf("hits = %d/%d, want 3/0", r.HitsWithECS, r.HitsWithoutECS)
	}
}

func TestBlowupRespectsExpiry(t *testing.T) {
	// Two subnets, 20 s apart with TTL 20: never concurrent.
	recs := []traces.Record{
		rec(0, 0, 0, 20, 24),
		rec(25, 1, 0, 20, 24),
	}
	r := Blowup(recs, 0)
	if r.MaxWithECS != 1 {
		t.Fatalf("MaxWithECS = %d, want 1 (no overlap)", r.MaxWithECS)
	}
}

func TestBlowupTTLOverrideExtendsOverlap(t *testing.T) {
	recs := []traces.Record{
		rec(0, 0, 0, 20, 24),
		rec(25, 1, 0, 20, 24),
	}
	r := Blowup(recs, 60*time.Second)
	if r.MaxWithECS != 2 {
		t.Fatalf("MaxWithECS = %d with 60 s TTL, want 2", r.MaxWithECS)
	}
}

func TestBlowupSharedScopeDoesNotGrow(t *testing.T) {
	// Scope 16: both subnets (same /16) share one entry.
	recs := []traces.Record{
		rec(0, 0, 0, 20, 16),
		rec(1, 1, 0, 20, 16),
	}
	r := Blowup(recs, 0)
	if r.MaxWithECS != 1 {
		t.Fatalf("MaxWithECS = %d, want 1 (shared /16 scope)", r.MaxWithECS)
	}
	if r.HitsWithECS != 1 {
		t.Fatalf("HitsWithECS = %d, want 1", r.HitsWithECS)
	}
}

func TestBlowupNonECSRecords(t *testing.T) {
	recs := []traces.Record{
		{Time: simStart, Client: netip.MustParseAddr("10.0.0.1"), Name: "x.example.", Type: dnswire.TypeA, TTL: 20},
		{Time: simStart.Add(time.Second), Client: netip.MustParseAddr("10.9.0.1"), Name: "x.example.", Type: dnswire.TypeA, TTL: 20},
	}
	r := Blowup(recs, 0)
	if r.MaxWithECS != 1 || r.MaxWithoutECS != 1 {
		t.Fatalf("non-ECS records must behave identically: %d/%d", r.MaxWithECS, r.MaxWithoutECS)
	}
}

func TestHitRateECSVsPlain(t *testing.T) {
	// Many subnets, one hot hostname: plain cache hits nearly always,
	// ECS cache only within each /24.
	var recs []traces.Record
	for i := 0; i < 100; i++ {
		recs = append(recs, rec(i/10, byte(i%10), 0, 300, 24))
	}
	plain := HitRate(recs, false)
	ecs := HitRate(recs, true)
	if plain.Stats.Hits != 99 {
		t.Fatalf("plain hits = %d, want 99", plain.Stats.Hits)
	}
	if ecs.Stats.Hits != 90 {
		// 10 subnets × first query each misses.
		t.Fatalf("ecs hits = %d, want 90", ecs.Stats.Hits)
	}
	if plain.HitRate() <= ecs.HitRate() {
		t.Fatal("plain rate must exceed ECS rate")
	}
}

func TestHitRateCoverageAcrossScopes(t *testing.T) {
	// A wide (/16) cached answer must serve a sibling /24 client.
	recs := []traces.Record{
		rec(0, 0, 0, 300, 16),
		rec(1, 1, 0, 300, 16),
	}
	r := HitRate(recs, true)
	if r.Stats.Hits != 1 {
		t.Fatalf("hits = %d, want 1 (wide scope shared)", r.Stats.Hits)
	}
}

func TestSampleClients(t *testing.T) {
	clients := make([]netip.Addr, 100)
	for i := range clients {
		clients[i] = netip.AddrFrom4([4]byte{10, 1, byte(i), 1})
	}
	keep := SampleClients(clients, 0.3, 1)
	if len(keep) != 30 {
		t.Fatalf("sampled %d, want 30", len(keep))
	}
	// Determinism.
	keep2 := SampleClients(clients, 0.3, 1)
	for c := range keep {
		if !keep2[c] {
			t.Fatal("sampling not deterministic")
		}
	}
	// Different seeds differ.
	keep3 := SampleClients(clients, 0.3, 2)
	same := 0
	for c := range keep {
		if keep3[c] {
			same++
		}
	}
	if same == 30 {
		t.Fatal("different seeds produced identical samples")
	}
	if got := SampleClients(clients, 1.0, 1); len(got) != 100 {
		t.Fatalf("full sample = %d", len(got))
	}
}

func TestFilterClients(t *testing.T) {
	recs := []traces.Record{
		rec(0, 0, 0, 20, 24),
		rec(1, 1, 0, 20, 24),
	}
	keep := map[netip.Addr]bool{recs[0].Client: true}
	got := FilterClients(recs, keep)
	if len(got) != 1 || got[0].Client != recs[0].Client {
		t.Fatalf("filtered = %v", got)
	}
}

func TestGeneratedTraceBlowupAboveOne(t *testing.T) {
	// Smoke-test the full pipeline on a small generated trace: ECS must
	// blow the cache up, not shrink it.
	cfg := traces.DefaultPublicCDN
	cfg.Resolvers = 10
	cfg.Duration = 5 * time.Minute
	for _, tr := range traces.GeneratePublicCDN(cfg) {
		r := Blowup(tr.Records, 0)
		if r.MaxWithECS < r.MaxWithoutECS {
			t.Fatalf("ECS cache smaller than plain: %+v", r)
		}
	}
}

func TestGeneratedAllNamesHitRateDropsUnderECS(t *testing.T) {
	cfg := traces.DefaultAllNames
	cfg.Queries = 30000
	cfg.Clients = 500
	cfg.Hostnames = 800
	cfg.Duration = 4 * time.Minute // preserve ≈128 qps density at this scale
	tr := traces.GenerateAllNames(cfg)
	plain := HitRate(tr.Records, false)
	ecs := HitRate(tr.Records, true)
	if ecs.HitRate() >= plain.HitRate() {
		t.Fatalf("ECS rate %.1f%% not below plain %.1f%%", ecs.HitRate(), plain.HitRate())
	}
	if plain.HitRate() < 40 {
		t.Fatalf("plain hit rate unrealistically low: %.1f%%", plain.HitRate())
	}
}

// Property: for any trace, the ECS cache is never smaller than the plain
// cache, plain hits are never fewer than ECS hits, and the blow-up
// factor is ≥ 1 whenever there is any traffic.
func TestPropertyBlowupInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		n := 50 + rng.Intn(400)
		recs := make([]traces.Record, n)
		at := simStart
		for i := range recs {
			at = at.Add(time.Duration(rng.Intn(5000)) * time.Millisecond)
			recs[i] = traces.Record{
				Time:   at,
				Client: netip.AddrFrom4([4]byte{10, byte(rng.Intn(4)), byte(rng.Intn(16)), 1}),
				Name:   dnswire.Name(fmt.Sprintf("h%d.example.", rng.Intn(12))),
				Type:   dnswire.TypeA,
				HasECS: rng.Intn(4) != 0,
				Source: 24,
				Scope:  []uint8{0, 16, 24}[rng.Intn(3)],
				TTL:    uint32(5 + rng.Intn(60)),
			}
		}
		r := Blowup(recs, 0)
		if r.MaxWithECS < r.MaxWithoutECS {
			t.Fatalf("trial %d: ECS cache %d smaller than plain %d", trial, r.MaxWithECS, r.MaxWithoutECS)
		}
		if r.HitsWithECS > r.HitsWithoutECS {
			t.Fatalf("trial %d: ECS hits %d exceed plain hits %d", trial, r.HitsWithECS, r.HitsWithoutECS)
		}
		if r.Factor() < 1 {
			t.Fatalf("trial %d: factor %v < 1", trial, r.Factor())
		}
		// HitRate agrees with the same ordering.
		plain := HitRate(recs, false)
		ecs := HitRate(recs, true)
		if ecs.Stats.Hits > plain.Stats.Hits {
			t.Fatalf("trial %d: coverage-aware ECS hits %d exceed plain %d", trial, ecs.Stats.Hits, plain.Stats.Hits)
		}
	}
}

// TestBlowupMatchesBruteForce pins Blowup's sizes and hits to a count
// that keeps every entry it ever inserted and rescans them all at each
// record: an entry is live from its insertion until its deadline, a
// query hits a live entry of its slot, and the cache size is the most
// entries live at once. Its slots are strings built from the question
// and the scoped prefix, independently of keyOf.
func TestBlowupMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		recs := make([]traces.Record, 20+rng.Intn(200))
		at := simStart
		for i := range recs {
			// Whole seconds, so records land on each other's deadlines.
			at = at.Add(time.Duration(rng.Intn(3)) * time.Second)
			client := netip.AddrFrom4([4]byte{10, byte(rng.Intn(2)), byte(rng.Intn(8)), 1})
			if rng.Intn(4) == 0 {
				client = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, byte(rng.Intn(4)), 15: 1})
			}
			recs[i] = traces.Record{
				Time:   at,
				Client: client,
				Name:   dnswire.Name(fmt.Sprintf("h%d.example.", rng.Intn(4))),
				Type:   []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA}[rng.Intn(2)],
				HasECS: rng.Intn(4) != 0,
				Source: 24,
				Scope:  []uint8{0, 16, 24}[rng.Intn(3)],
				TTL:    uint32(1 + rng.Intn(10)),
			}
		}
		var ttlOverride time.Duration
		if trial%3 == 0 {
			ttlOverride = time.Duration(1+rng.Intn(10)) * time.Second
		}
		count := func(honorECS bool) (size, hits int) {
			type entry struct {
				slot     string
				deadline time.Time
			}
			var all []entry
			for _, r := range recs {
				slot := string(r.Name) + "|" + r.Type.String()
				if honorECS && r.HasECS {
					slot += "|" + netip.PrefixFrom(ecsopt.MaskAddr(r.Client, int(r.Scope)), int(r.Scope)).String()
				}
				live, hit := 0, false
				for _, e := range all {
					if e.deadline.After(r.Time) {
						live++
						hit = hit || e.slot == slot
					}
				}
				if hit {
					hits++
					continue
				}
				ttl := time.Duration(r.TTL) * time.Second
				if ttlOverride != 0 {
					ttl = ttlOverride
				}
				all = append(all, entry{slot, r.Time.Add(ttl)})
				size = max(size, live+1)
			}
			return size, hits
		}
		got := Blowup(recs, ttlOverride)
		ecsSize, ecsHits := count(true)
		plainSize, plainHits := count(false)
		if got.MaxWithECS != ecsSize || got.HitsWithECS != ecsHits ||
			got.MaxWithoutECS != plainSize || got.HitsWithoutECS != plainHits {
			t.Fatalf("trial %d: Blowup %d/%d entries, %d/%d hits (ECS/plain); brute force %d/%d, %d/%d",
				trial, got.MaxWithECS, got.MaxWithoutECS, got.HitsWithECS, got.HitsWithoutECS,
				ecsSize, plainSize, ecsHits, plainHits)
		}
	}
}

// Property: the scope-aware hit-rate simulation can only gain hits from
// wider scopes, so forcing every scope to 32 (exact-prefix) gives the
// fewest hits and scope 0 recovers the plain cache exactly.
func TestPropertyScopeMonotonicity(t *testing.T) {
	cfg := traces.DefaultAllNames
	cfg.Queries = 8000
	cfg.Clients = 300
	cfg.Duration = 2 * time.Minute
	base := traces.GenerateAllNames(cfg).Records

	withScope := func(scope uint8) []traces.Record {
		out := make([]traces.Record, len(base))
		copy(out, base)
		for i := range out {
			if out[i].Client.Is4() {
				out[i].Scope = scope
			} else if scope == 0 {
				out[i].Scope = 0
			} else {
				out[i].Scope = scope * 2
			}
		}
		return out
	}
	h0 := HitRate(withScope(0), true)
	h16 := HitRate(withScope(16), true)
	h24 := HitRate(withScope(24), true)
	plain := HitRate(base, false)
	if !(h24.Stats.Hits <= h16.Stats.Hits && h16.Stats.Hits <= h0.Stats.Hits) {
		t.Fatalf("hits not monotone in scope width: /24=%d /16=%d /0=%d",
			h24.Stats.Hits, h16.Stats.Hits, h0.Stats.Hits)
	}
	if h0.Stats.Hits != plain.Stats.Hits {
		t.Fatalf("scope-0 ECS cache (%d hits) must equal the plain cache (%d hits)",
			h0.Stats.Hits, plain.Stats.Hits)
	}
}

// BenchmarkHitRateScope replays one all-names trace against a cache that
// honors ECS scope and one that ignores it: the §6.3 resolvers that
// ignore scope, as what it costs and what hit rate (hit%) it buys.
func BenchmarkHitRateScope(b *testing.B) {
	cfg := traces.DefaultAllNames
	cfg.Queries = 40000
	tr := traces.GenerateAllNames(cfg)
	for _, mode := range []struct {
		name  string
		honor bool
	}{{"honor-scope", true}, {"ignore-scope", false}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var rate float64
			for i := 0; i < b.N; i++ {
				rate = HitRate(tr.Records, mode.honor).HitRate()
			}
			b.ReportMetric(rate, "hit%")
		})
	}
}

// BenchmarkBlowup times the trace-driven blow-up count of Figure 1 over
// twenty resolvers' traces.
func BenchmarkBlowup(b *testing.B) {
	cfg := traces.DefaultPublicCDN
	cfg.Resolvers = 20
	trs := traces.GeneratePublicCDN(cfg)
	total := 0
	for _, tr := range trs {
		total += len(tr.Records)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range trs {
			Blowup(tr.Records, 0)
		}
	}
	b.ReportMetric(float64(total), "records")
}
