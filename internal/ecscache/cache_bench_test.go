package ecscache

import (
	"fmt"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
)

// The benchmarks below pit the single-mutex baseline (Shards: 1)
// against the sharded layout, on both the unbounded (RLock) and bounded
// (exclusive lock, LRU maintenance) lookup paths. They are developer
// tools: nothing records their output, and verify.sh runs them for one
// iteration only so that they keep working.

var benchNow = time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC)

// benchLayouts is the shard sweep every cache benchmark runs: the
// serialized single-mutex baseline against the default sharded
// layout. Run with -cpu above 1 so RunParallel actually contends the
// locks.
func benchLayouts() []struct {
	name   string
	shards int
} {
	return []struct {
		name   string
		shards int
	}{
		{"shards-1", 1},
		{"shards-8", 8},
	}
}

// benchKeys returns n distinct question keys so load spreads across
// shards the way distinct names do in a live resolver.
func benchKeys(n int) []Key {
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key{
			Name:  dnswire.MustParseName(fmt.Sprintf("n%03d.bench.example.", i)),
			Type:  dnswire.TypeA,
			Class: dnswire.ClassINET,
		}
	}
	return keys
}

// benchSubnet derives the i-th /24 and a client address inside it.
func benchSubnet(i int) (ecsopt.ClientSubnet, netip.Addr) {
	base := netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0})
	client := netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 7})
	return ecsopt.MustNew(base, 24).WithScope(24), client
}

func benchFill(c *Cache, keys []Key, fanout int) {
	for _, key := range keys {
		for i := 0; i < fanout; i++ {
			cs, _ := benchSubnet(i)
			c.Insert(key, Entry{
				HasECS: true,
				Subnet: cs,
				Expiry: benchNow.Add(time.Hour),
			}, benchNow)
		}
	}
}

// BenchmarkCacheLookup measures concurrent hit-path lookups. The
// bounded variants pay for LRU recency under an exclusive shard lock,
// so they are where shard count shows up; the unbounded variants
// share an RLock and mostly measure the covering scan.
func BenchmarkCacheLookup(b *testing.B) {
	const (
		keyCount = 64
		fanout   = 32
	)
	for _, bound := range []struct {
		name string
		max  int
	}{
		{"unbounded", 0},
		// Capacity above the resident population: every lookup still
		// hits, but takes the bounded write-locked path.
		{"bounded", 2 * keyCount * fanout},
	} {
		for _, layout := range benchLayouts() {
			b.Run(bound.name+"/"+layout.name, func(b *testing.B) {
				c := New(Config{
					Mode:               HonorScope,
					ClampScopeToSource: true,
					Shards:             layout.shards,
					MaxEntries:         bound.max,
				})
				keys := benchKeys(keyCount)
				benchFill(c, keys, fanout)
				var ctr atomic.Uint64
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						n := int(ctr.Add(1))
						key := keys[n%keyCount]
						_, client := benchSubnet(n % fanout)
						if _, ok := c.Lookup(key, client, benchNow); !ok {
							b.Error("unexpected miss")
							return
						}
					}
				})
			})
		}
	}
}

// BenchmarkCacheFanout prices one name's operations against the number
// of client subnets it holds, the paper's §7 blow-up seen from a single
// name: replacing a resident entry, splicing in a new subnet, and a hit.
// A splice row's LRU bound holds the name at its fanout, so each insert
// also evicts the oldest subnet. A fill row builds the name from nothing,
// every subnet given the same answer or each its own, and reports the
// live heap that cost per entry (B/entry) and the bytes each insert of
// decoded records allocated (B/insert): the transient beside what stays,
// a copy of the records for each insert no neighbour could share them
// with. fill-fresh prices serve-miss's shape the same way, 4 096 names of
// one entry each in a cache bounded at 4 096. One goroutine and one
// shard: the rows are about the per-question list, not about contention.
func BenchmarkCacheFanout(b *testing.B) {
	entry := func(i int) Entry {
		cs, _ := benchSubnet(i)
		return Entry{HasECS: true, Subnet: cs, Expiry: benchNow.Add(time.Hour)}
	}
	b.Run("fill-fresh/4096", func(b *testing.B) {
		var cost fillCost
		for i := 0; i < b.N; i++ {
			cost = freshBytesPerEntry(4096)
		}
		b.ReportMetric(cost.live, "B/entry")
		b.ReportMetric(cost.alloc, "B/insert")
	})
	for _, fanout := range []int{1, 64, 2048, 16384} {
		for _, answers := range []string{"equal", "distinct"} {
			b.Run(fmt.Sprintf("fill-%s/%d", answers, fanout), func(b *testing.B) {
				var cost fillCost
				for i := 0; i < b.N; i++ {
					cost = bytesPerEntry(fanout, answers == "distinct")
				}
				b.ReportMetric(cost.live, "B/entry")
				b.ReportMetric(cost.alloc, "B/insert")
			})
		}
		newCache := func(maxEntries int) *Cache {
			c := New(Config{Mode: HonorScope, ClampScopeToSource: true, MaxEntries: maxEntries})
			benchFill(c, []Key{keyA}, fanout)
			return c
		}
		replaced := newCache(0)
		b.Run(fmt.Sprintf("insert-replace/%d", fanout), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				replaced.Insert(keyA, entry(i%fanout), benchNow)
			}
		})
		// Subnets fanout..2*fanout-1 displace 0..fanout-1 and then the
		// other way round; next carries on across b.N rounds so that every
		// insert is a splice.
		bounded, next := newCache(fanout), fanout
		b.Run(fmt.Sprintf("insert-splice/%d", fanout), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bounded.Insert(keyA, entry(next%(2*fanout)), benchNow)
				next++
			}
		})
		// A cache of its own: entries a replace row has reallocated lie
		// scattered, and how far depends on how many rounds it ran.
		c := newCache(0)
		b.Run(fmt.Sprintf("lookup/%d", fanout), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, client := benchSubnet(i * 769 % fanout)
				if _, ok := c.Lookup(keyA, client, benchNow); !ok {
					b.Fatal("unexpected miss")
				}
			}
		})
	}
}

// churnCache builds the cache the churn mix runs against: a capacity
// bound tight enough that inserts continually evict.
func churnCache(shards int) (*Cache, []Key) {
	c := New(Config{
		Mode:               HonorScope,
		ClampScopeToSource: true,
		Shards:             shards,
		MaxEntries:         1024,
	})
	keys := benchKeys(64)
	benchFill(c, keys, 8)
	return c, keys
}

// churnOp is step n of the churn mix: three lookups per insert, with
// the insert stream walking an unbounded subnet space so the LRU never
// stops working.
func churnOp(c *Cache, keys []Key, n int) {
	key := keys[n%len(keys)]
	if n%4 == 0 {
		cs, _ := benchSubnet(n % 65536)
		c.Insert(key, Entry{
			HasECS: true,
			Subnet: cs,
			Expiry: benchNow.Add(time.Hour),
		}, benchNow)
	} else {
		_, client := benchSubnet(n % 65536)
		c.Lookup(key, client, benchNow)
	}
}

// BenchmarkCacheChurn measures the churn mix under contention. This is
// the write-heavy case where a single mutex serializes everything.
func BenchmarkCacheChurn(b *testing.B) {
	for _, layout := range benchLayouts() {
		b.Run(layout.name, func(b *testing.B) {
			c, keys := churnCache(layout.shards)
			var ctr atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					churnOp(c, keys, int(ctr.Add(1)))
				}
			})
		})
	}
}

// TestAllocGateCacheChurn holds the bounded path — insert, LRU
// maintenance, eviction, and the lookups between — to the one object it
// has to allocate: the entry the cache keeps. One measured run is one
// cycle of the mix (three lookups, one insert), because the benchmark's
// "0 allocs/op" is that entry's 0.25 per operation rounded down, which a
// second allocation per insert (0.5) would round down to as well.
func TestAllocGateCacheChurn(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, layout := range benchLayouts() {
		c, keys := churnCache(layout.shards)
		n := 0
		cycle := func() {
			for i := 0; i < 4; i++ {
				n++
				churnOp(c, keys, n)
			}
		}
		// Let every list the insert stream touches reach its steady
		// length before counting, so slice growth is behind us.
		for n < 1<<16 {
			cycle()
		}
		if got := testing.AllocsPerRun(2000, cycle); got > 1 {
			t.Errorf("%s: a cycle of the churn mix allocates %.0f objects, want 1 (the stored entry)", layout.name, got)
		}
		if c.Stats().Evictions == 0 {
			t.Errorf("%s: the mix evicted nothing; the bound is not doing its job", layout.name)
		}
	}
}
