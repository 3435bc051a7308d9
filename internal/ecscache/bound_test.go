package ecscache

import (
	"fmt"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
)

func boundKey(i int) Key {
	return Key{
		Name:  dnswire.Name(fmt.Sprintf("b%d.example.com.", i)),
		Type:  dnswire.TypeA,
		Class: dnswire.ClassINET,
	}
}

// The capacity bound evicts the least-recently-USED entry, not the
// oldest insert: touching an entry via Lookup must spare it.
func TestCapacityBoundEvictsLRU(t *testing.T) {
	t.Run("linear", func(t *testing.T) {
		c := New(Config{Mode: HonorScope, MaxEntries: 2})
		a := ecsEntry("203.0.1.0", 24, 24, time.Hour)
		b := ecsEntry("203.0.2.0", 24, 24, time.Hour)
		cc := ecsEntry("203.0.3.0", 24, 24, time.Hour)
		c.Insert(keyA, a, t0)
		c.Insert(keyA, b, t0)
		// Recency now B > A; touch A so B becomes the victim.
		if _, ok := c.Lookup(keyA, addr("203.0.1.9"), t0.Add(time.Second)); !ok {
			t.Fatal("warm-up lookup missed")
		}
		c.Insert(keyA, cc, t0.Add(2*time.Second))

		now := t0.Add(3 * time.Second)
		if _, ok := c.Lookup(keyA, addr("203.0.2.9"), now); ok {
			t.Fatal("least-recently-used entry survived eviction")
		}
		if _, ok := c.Lookup(keyA, addr("203.0.1.9"), now); !ok {
			t.Fatal("recently used entry was evicted")
		}
		if _, ok := c.Lookup(keyA, addr("203.0.3.9"), now); !ok {
			t.Fatal("newest entry was evicted")
		}
		if got := c.Len(now); got != 2 {
			t.Fatalf("Len = %d, want capacity 2", got)
		}
		st := c.Stats()
		if st.Evictions != 1 {
			t.Fatalf("Evictions = %d, want exactly the one premature eviction", st.Evictions)
		}
		if st.Expiries != 0 {
			t.Fatalf("Expiries = %d, want 0 (victim was alive)", st.Expiries)
		}
	})
}

// A capacity victim that had already expired is an expiry, not a
// premature eviction — the split cachesim.BoundedReplay's operator-cost
// numbers turn on.
func TestEvictionVsExpiryAccounting(t *testing.T) {
	c := New(Config{Mode: HonorScope, MaxEntries: 2})
	// Distinct keys so per-key expired collection can't touch the victim.
	c.Insert(boundKey(1), ecsEntry("203.0.1.0", 24, 24, time.Second), t0)
	c.Insert(boundKey(2), ecsEntry("203.0.2.0", 24, 24, time.Hour), t0)
	// Key 1's entry is dead by now; pushing past capacity removes it from
	// the tail as an expiry.
	c.Insert(boundKey(3), ecsEntry("203.0.3.0", 24, 24, time.Hour), t0.Add(2*time.Second))
	st := c.Stats()
	if st.Expiries != 1 || st.Evictions != 0 {
		t.Fatalf("expiries/evictions = %d/%d, want 1/0 for a dead victim", st.Expiries, st.Evictions)
	}
	// Now every resident is alive: the next overflow is premature.
	c.Insert(boundKey(4), ecsEntry("203.0.4.0", 24, 24, time.Hour), t0.Add(3*time.Second))
	st = c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1 premature eviction of a live entry", st.Evictions)
	}
}

// The bound holds across shards: MaxEntries splits per shard, every
// shard keeps at least one slot, and the resident total never exceeds
// max(MaxEntries, shards).
func TestCapacityBoundSharded(t *testing.T) {
	const maxEntries = 8
	const shards = 4
	c := New(Config{Mode: HonorScope, Shards: shards, MaxEntries: maxEntries})
	now := t0
	for i := 0; i < 200; i++ {
		c.Insert(boundKey(i), ecsEntry(fmt.Sprintf("203.%d.%d.0", i/250, i%250), 24, 24, time.Hour), now)
		if live := c.Stats().Live; live > maxEntries {
			t.Fatalf("resident count %d exceeds bound %d after insert %d", live, maxEntries, i)
		}
	}
	if st := c.Stats(); st.Evictions+st.Expiries != 200-int64(c.Len(now)) {
		t.Fatalf("removal accounting does not balance: %+v with Len %d", st, c.Len(now))
	}
}

// Replacing an entry in a full cache must not evict anyone: the
// replaced entry makes room for its replacement.
func TestReplacementDoesNotEvict(t *testing.T) {
	c := New(Config{Mode: HonorScope, MaxEntries: 2})
	c.Insert(keyA, ecsEntry("203.0.1.0", 24, 24, time.Hour), t0)
	c.Insert(keyA, ecsEntry("203.0.2.0", 24, 24, time.Hour), t0)
	// Same slot as the first insert: replacement, not growth.
	c.Insert(keyA, ecsEntry("203.0.1.0", 24, 24, 2*time.Hour), t0.Add(time.Second))
	st := c.Stats()
	if st.Evictions != 0 {
		t.Fatalf("same-slot replacement caused %d evictions", st.Evictions)
	}
	if got := c.Len(t0.Add(2 * time.Second)); got != 2 {
		t.Fatalf("Len = %d, want both distinct subnets resident", got)
	}
}

// An unbounded cache must never report an eviction, whatever the load.
func TestUnboundedNeverEvicts(t *testing.T) {
	c := New(Config{Mode: HonorScope, Shards: 8})
	for i := 0; i < 500; i++ {
		c.Insert(boundKey(i%50), ecsEntry(fmt.Sprintf("203.%d.%d.0", i/250, i%250), 24, 24, time.Hour), t0)
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("unbounded cache evicted %d entries", st.Evictions)
	}
}

// Flush on a bounded cache resets the recency list as well as storage;
// inserting afterwards must not trip over stale LRU links.
func TestFlushResetsRecency(t *testing.T) {
	c := New(Config{Mode: HonorScope, MaxEntries: 2})
	c.Insert(keyA, ecsEntry("203.0.1.0", 24, 24, time.Hour), t0)
	c.Insert(keyA, ecsEntry("203.0.2.0", 24, 24, time.Hour), t0)
	c.Flush()
	if got := c.Stats().Live; got != 0 {
		t.Fatalf("Live = %d after flush", got)
	}
	for i := 0; i < 5; i++ {
		c.Insert(keyA, ecsEntry(fmt.Sprintf("203.0.%d.0", 10+i), 24, 24, time.Hour), t0)
	}
	if got := c.Len(t0.Add(time.Second)); got != 2 {
		t.Fatalf("Len = %d after post-flush churn, want 2", got)
	}
}

// Shard splitting: every shard gets at least one slot even when the
// global bound is smaller than the shard count, and the shares of a
// larger bound differ by at most one.
func TestShardCapacitySplit(t *testing.T) {
	if n := shardCount(0); n != 1 {
		t.Fatalf("shardCount(0) = %d", n)
	}
	if n := shardCount(5); n != 8 {
		t.Fatalf("shardCount(5) = %d, want next power of two", n)
	}
	// 10 entries over 4 shards: 3+3+2+2.
	total := 0
	for i := 0; i < 4; i++ {
		cap := shardCapacity(10, 4, i)
		if cap < 2 || cap > 3 {
			t.Fatalf("shardCapacity(10,4,%d) = %d", i, cap)
		}
		total += cap
	}
	if total != 10 {
		t.Fatalf("split total = %d, want 10", total)
	}
	// Bound smaller than shard count: min one slot each.
	for i := 0; i < 8; i++ {
		if cap := shardCapacity(2, 8, i); cap < 1 {
			t.Fatalf("shardCapacity(2,8,%d) = %d, want ≥1", i, cap)
		}
	}
}
