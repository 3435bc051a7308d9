package ecscache

import (
	"fmt"
	"sync/atomic"
)

// cacheCounters is the cache's internal atomic accounting, following
// the same discipline as dnsserver's ServerStats: cumulative atomic
// counters snapshotted into a stats struct with an outcome partition,
// lookups = hits + misses, that the differential tests compare with a
// reference model's counts after every run.
type cacheCounters struct {
	lookups, hits, misses atomic.Int64
	// expiries counts entries removed because they were dead (per-key
	// collection, purges, or an already-expired LRU tail); evictions
	// counts entries removed by capacity pressure while still alive —
	// the premature evictions §7 argues operators must provision
	// against.
	expiries, evictions atomic.Int64
	// coalesced counts singleflight waiters served by another caller's
	// in-flight fetch; rejected counts inserts refused for carrying an
	// unprefixable ECS subnet.
	coalesced, rejected atomic.Int64
	// shared counts inserts that took a list neighbour's records.
	shared atomic.Int64
	// live tracks resident entries, dead ones not yet collected
	// included; high its historical maximum.
	live, high atomic.Int64
}

// addLive moves the resident-entry count and ratchets the high-water
// mark. Shards call it while holding their own lock, so the count is
// exact; the CAS loop keeps the maximum exact under cross-shard races.
func (c *Cache) addLive(delta int) {
	l := c.stats.live.Add(int64(delta))
	if delta <= 0 {
		return
	}
	for {
		h := c.stats.high.Load()
		if l <= h || c.stats.high.CompareAndSwap(h, l) {
			return
		}
	}
}

// CacheStats is a point-in-time snapshot of the cache's accounting.
// Lookups partition into Hits + Misses; removals split into Expiries
// (natural death) and Evictions (capacity pressure on a live entry —
// the premature evictions cachesim.BoundedReplay models).
type CacheStats struct {
	// Lookups counts Lookup calls and the Hit calls that hit; every one
	// is a Hit or a Miss.
	Lookups int64
	Hits    int64
	Misses  int64
	// Expiries counts dead entries removed; Evictions counts live
	// entries pushed out by the capacity bound (premature).
	Expiries  int64
	Evictions int64
	// Coalesced counts callers whose upstream fetch was deduplicated
	// onto another caller's in-flight singleflight call.
	Coalesced int64
	// Rejected counts inserts refused because the entry claimed an ECS
	// subnet that cannot produce a prefix at its effective scope.
	Rejected int64
	// Shared counts inserts that took a list neighbour's non-empty
	// record set instead of keeping their own copy: how much of the §7
	// blow-up was the same answer stored again.
	Shared int64
	// Live is the resident entry count now; HighWater its historical
	// maximum.
	Live      int64
	HighWater int64
}

// Stats snapshots the cache's counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Lookups:   c.stats.lookups.Load(),
		Hits:      c.stats.hits.Load(),
		Misses:    c.stats.misses.Load(),
		Expiries:  c.stats.expiries.Load(),
		Evictions: c.stats.evictions.Load(),
		Coalesced: c.stats.coalesced.Load(),
		Rejected:  c.stats.rejected.Load(),
		Shared:    c.stats.shared.Load(),
		Live:      c.stats.live.Load(),
		HighWater: c.stats.high.Load(),
	}
}

// Balanced reports whether every lookup landed in exactly one outcome
// class. It holds at any quiescent point (Lookup updates both counters
// before returning).
func (st CacheStats) Balanced() bool {
	return st.Lookups == st.Hits+st.Misses
}

// HitRate returns hits per lookup in percent.
func (st CacheStats) HitRate() float64 {
	if st.Lookups == 0 {
		return 0
	}
	return 100 * float64(st.Hits) / float64(st.Lookups)
}

// String renders the one-line operational summary the cmd binaries log
// on exit.
func (st CacheStats) String() string {
	return fmt.Sprintf(
		"lookups=%d hits=%d misses=%d (%.1f%% hit) evictions=%d expiries=%d coalesced=%d rejected=%d shared=%d live=%d high=%d",
		st.Lookups, st.Hits, st.Misses, st.HitRate(),
		st.Evictions, st.Expiries, st.Coalesced, st.Rejected,
		st.Shared, st.Live, st.HighWater)
}
