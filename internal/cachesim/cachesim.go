// Package cachesim runs the trace-driven cache simulations of §7 of the
// paper: the growth in resolver cache size caused by ECS (the "blow-up
// factor" of Figures 1 and 2) and the drop in cache hit rate (Figure 3).
// The simulations follow the paper's assumptions: resolvers honor
// authoritative TTLs exactly and never evict early.
package cachesim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"ecsdns/internal/ecscache"
	"ecsdns/internal/ecsopt"
	"ecsdns/internal/traces"
)

// expiryItem is one (deadline, key) pair in the expiry heap.
type expiryItem struct {
	at  time.Time
	key string
}

type expiryHeap []expiryItem

func (h expiryHeap) Len() int            { return len(h) }
func (h expiryHeap) Less(i, j int) bool  { return h[i].at.Before(h[j].at) }
func (h expiryHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *expiryHeap) Push(x interface{}) { *h = append(*h, x.(expiryItem)) }
func (h *expiryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// liveSet tracks the number of concurrently live cache entries exactly:
// entries expire at their deadline and the high-water mark is updated on
// every insertion.
type liveSet struct {
	expiry map[string]time.Time
	h      expiryHeap
	max    int
}

func newLiveSet() *liveSet {
	return &liveSet{expiry: make(map[string]time.Time)}
}

// touch simulates one query for key at `now` with the given ttl: a live
// entry is a hit (no state change); otherwise a new entry is inserted.
func (s *liveSet) touch(key string, now time.Time, ttl time.Duration) bool {
	s.purge(now)
	if e, ok := s.expiry[key]; ok && e.After(now) {
		return true
	}
	s.expiry[key] = now.Add(ttl)
	heap.Push(&s.h, expiryItem{at: now.Add(ttl), key: key})
	if len(s.expiry) > s.max {
		s.max = len(s.expiry)
	}
	return false
}

func (s *liveSet) purge(now time.Time) {
	for len(s.h) > 0 && !s.h[0].at.After(now) {
		it := heap.Pop(&s.h).(expiryItem)
		if e, ok := s.expiry[it.key]; ok && !e.After(it.at) {
			delete(s.expiry, it.key)
		}
	}
}

// BlowupResult reports one resolver's cache sizes with and without ECS.
type BlowupResult struct {
	Resolver       netip.Addr
	MaxWithECS     int
	MaxWithoutECS  int
	HitsWithECS    int
	HitsWithoutECS int
	Queries        int
}

// Factor is the cache blow-up factor the paper plots.
func (r BlowupResult) Factor() float64 {
	if r.MaxWithoutECS == 0 {
		return 0
	}
	return float64(r.MaxWithECS) / float64(r.MaxWithoutECS)
}

// Blowup replays one resolver trace twice — honoring and ignoring the
// ECS scope restrictions — and reports the maximum cache sizes.
// ttlOverride, when nonzero, replaces every record's TTL (the Figure 1
// TTL sweep); zero uses the TTLs in the trace.
func Blowup(recs []traces.Record, ttlOverride time.Duration) BlowupResult {
	withECS := newLiveSet()
	withoutECS := newLiveSet()
	var res BlowupResult
	if len(recs) > 0 {
		res.Resolver = recs[0].Resolver
	}
	for _, rec := range recs {
		ttl := time.Duration(rec.TTL) * time.Second
		if ttlOverride != 0 {
			ttl = ttlOverride
		}
		plainKey := string(rec.Name) + "|" + rec.Type.String()
		if withoutECS.touch(plainKey, rec.Time, ttl) {
			res.HitsWithoutECS++
		}
		ecsKey := plainKey
		if rec.HasECS {
			ecsKey = plainKey + "|" + scopedPrefix(rec).String()
		}
		if withECS.touch(ecsKey, rec.Time, ttl) {
			res.HitsWithECS++
		}
		res.Queries++
	}
	res.MaxWithECS = withECS.max
	res.MaxWithoutECS = withoutECS.max
	return res
}

// scopedPrefix is the cache-index prefix of a record: the client address
// masked to the response scope.
func scopedPrefix(rec traces.Record) netip.Prefix {
	return netip.PrefixFrom(ecsopt.MaskAddr(rec.Client, int(rec.Scope)), int(rec.Scope))
}

// HitRateResult reports a hit-rate replay.
type HitRateResult struct {
	Queries int
	Hits    int
}

// Rate returns hits/queries in percent.
func (r HitRateResult) Rate() float64 {
	if r.Queries == 0 {
		return 0
	}
	return 100 * float64(r.Hits) / float64(r.Queries)
}

// HitRate replays a trace against a scope-honoring ECS cache
// (honorECS=true) or a classic cache that ignores ECS (false), using the
// coverage semantics of RFC 7871 (a client inside a wider cached scope
// hits even if its own /24 was never queried). It is CacheReplay over an
// unbounded cache.
func HitRate(recs []traces.Record, honorECS bool) HitRateResult {
	mode := ecscache.IgnoreScope
	if honorECS {
		mode = ecscache.HonorScope
	}
	r := CacheReplay(recs, ecscache.Config{Mode: mode, ClampScopeToSource: true})
	return HitRateResult{Queries: r.Queries, Hits: int(r.Stats.Hits)}
}

// SampleClients draws a random fraction of the client population,
// returning the keep-set. Three different seeds reproduce the paper's
// three-run averaging.
func SampleClients(clients []netip.Addr, fraction float64, seed int64) map[netip.Addr]bool {
	if fraction >= 1 {
		out := make(map[netip.Addr]bool, len(clients))
		for _, c := range clients {
			out[c] = true
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	k := int(fraction * float64(len(clients)))
	keep := make(map[netip.Addr]bool, k)
	for _, i := range rng.Perm(len(clients))[:k] {
		keep[clients[i]] = true
	}
	return keep
}

// FilterClients restricts a trace to records whose client is in keep.
func FilterClients(recs []traces.Record, keep map[netip.Addr]bool) []traces.Record {
	out := make([]traces.Record, 0, len(recs))
	for _, r := range recs {
		if keep[r.Client] {
			out = append(out, r)
		}
	}
	return out
}

// String renders a BlowupResult compactly.
func (r BlowupResult) String() string {
	return fmt.Sprintf("resolver=%s ecs=%d plain=%d factor=%.2f",
		r.Resolver, r.MaxWithECS, r.MaxWithoutECS, r.Factor())
}
