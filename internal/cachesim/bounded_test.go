package cachesim

import (
	"testing"
	"time"

	"ecsdns/internal/traces"
)

func TestBoundedReplayBasics(t *testing.T) {
	// Two hot names in one subnet, capacity 2: everything fits, repeats
	// hit, no premature evictions.
	var recs []traces.Record
	for i := 0; i < 10; i++ {
		recs = append(recs, rec(i, 0, i%2, 300, 24))
	}
	r := BoundedReplay(recs, 2, true)
	if r.Hits != 8 || r.Evictions != 0 {
		t.Fatalf("hits=%d evictions=%d, want 8/0", r.Hits, r.Evictions)
	}
}

func TestBoundedReplayEvictsUnderPressure(t *testing.T) {
	// Three concurrently-live names, capacity 2: the round-robin access
	// pattern churns the LRU and every miss evicts a live entry.
	var recs []traces.Record
	for i := 0; i < 30; i++ {
		recs = append(recs, rec(i, 0, i%3, 300, 24))
	}
	r := BoundedReplay(recs, 2, true)
	if r.Evictions == 0 {
		t.Fatal("no premature evictions under capacity pressure")
	}
	if r.Hits != 0 {
		t.Fatalf("hits = %d; round-robin over capacity+1 names must always miss", r.Hits)
	}
}

func TestBoundedReplayExpiredRefreshNotEviction(t *testing.T) {
	recs := []traces.Record{
		rec(0, 0, 0, 5, 24),
		rec(10, 0, 0, 5, 24), // expired in place: refresh, not eviction
	}
	r := BoundedReplay(recs, 4, true)
	if r.Evictions != 0 || r.Hits != 0 {
		t.Fatalf("hits=%d evictions=%d, want 0/0", r.Hits, r.Evictions)
	}
}

func TestBoundedECSNeedsMoreCapacity(t *testing.T) {
	// Many subnets sharing hot names: at equal capacity, honoring ECS
	// must evict more and hit less than ignoring it. The cycle lengths
	// are coprime so (subnet, name) pairs cover the full 8×5 product.
	var recs []traces.Record
	for i := 0; i < 400; i++ {
		recs = append(recs, rec(i/8, byte(i%8), i%5, 300, 24))
	}
	capac := 8
	plain := BoundedReplay(recs, capac, false)
	ecs := BoundedReplay(recs, capac, true)
	if ecs.HitRate() >= plain.HitRate() {
		t.Fatalf("ECS hit rate %.1f%% not below plain %.1f%% at capacity %d",
			ecs.HitRate(), plain.HitRate(), capac)
	}
	if ecs.Evictions <= plain.Evictions {
		t.Fatalf("ECS evictions %d not above plain %d", ecs.Evictions, plain.Evictions)
	}
	// Once capacity covers the fragmented working set (8 subnets × 5
	// names), the ECS cache recovers. (Cyclic access is the LRU worst
	// case: below the working-set size the hit rate is exactly zero,
	// which is why the blow-up factor matters so much to operators.)
	recovered := BoundedReplay(recs, 40, true)
	// 40 compulsory misses remain (one per fragmented key); everything
	// else hits and nothing is evicted early.
	if recovered.Hits != 360 {
		t.Fatalf("working-set capacity: hits = %d, want 360", recovered.Hits)
	}
	if recovered.Evictions != 0 {
		t.Fatalf("working-set capacity still evicted %d", recovered.Evictions)
	}
}

func TestBoundedReplayZeroCapacity(t *testing.T) {
	recs := []traces.Record{rec(0, 0, 0, 20, 24)}
	r := BoundedReplay(recs, 0, true)
	if r.Hits != 0 || r.Evictions != 0 || r.Queries != 1 {
		t.Fatalf("zero capacity: %+v", r)
	}
	if r.HitRate() != 0 || r.EvictionRate() != 0 {
		t.Fatal("rates on zero capacity")
	}
	if (BoundedResult{}).HitRate() != 0 {
		t.Fatal("empty result rate")
	}
}

// TestBoundedMatchesUnboundedWhenHuge: with room for every slot, the LRU
// never evicts, so it is Blowup's cache, slot for slot (both key by
// keyOf), and counts exactly its hits.
func TestBoundedMatchesUnboundedWhenHuge(t *testing.T) {
	cfg := traces.DefaultAllNames
	cfg.Queries = 10000
	cfg.Clients = 300
	cfg.Duration = 2 * time.Minute
	tr := traces.GenerateAllNames(cfg)
	unbounded := Blowup(tr.Records, 0)
	for _, c := range []struct {
		honorECS bool
		want     int
	}{{true, unbounded.HitsWithECS}, {false, unbounded.HitsWithoutECS}} {
		bounded := BoundedReplay(tr.Records, 1<<20, c.honorECS)
		if bounded.Evictions != 0 {
			t.Fatalf("honorECS=%v: huge capacity evicted %d", c.honorECS, bounded.Evictions)
		}
		if bounded.Hits != c.want {
			t.Fatalf("honorECS=%v: bounded hits %d, Blowup's %d", c.honorECS, bounded.Hits, c.want)
		}
	}
}
