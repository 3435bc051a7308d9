// Package cachesim runs the trace-driven cache simulations of §7 of the
// paper. One Blowup pass gives both the growth in resolver cache size
// caused by ECS (the "blow-up factor" of Figures 1 and 2) and the drop in
// cache hit rate (Figure 3), under the paper's assumptions: resolvers
// honor authoritative TTLs exactly and never evict early. Every replay
// needs its records in time order; cmd/ecsreplay sorts a trace it reads.
package cachesim

import (
	"math/rand"
	"net/netip"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecscache"
	"ecsdns/internal/ecsopt"
	"ecsdns/internal/traces"
)

// key is one cache slot: the question and, in a cache that honors an
// ECS answer's scope, the client prefix the answer is scoped to.
type key struct {
	name   dnswire.Name
	typ    dnswire.Type
	prefix netip.Prefix
}

// keyOf is rec's slot in a cache that honors ECS scope (honorECS) or
// one that ignores it. A record without ECS takes the question's
// unscoped slot either way.
func keyOf(rec traces.Record, honorECS bool) key {
	k := key{name: rec.Name, typ: rec.Type}
	if honorECS && rec.HasECS {
		k.prefix = netip.PrefixFrom(ecsopt.MaskAddr(rec.Client, int(rec.Scope)), int(rec.Scope))
	}
	return k
}

// liveSet counts a cache's live entries exactly: an entry lives from its
// insertion until its deadline, and the high-water mark is taken on
// every insertion. Times are offsets from the trace's first record.
// deadlines is a min-heap holding one deadline per live entry, so its
// length is the live count. slots keeps each slot's last deadline,
// live or not, and drops its dead ones in bulk once they outnumber the
// live ones.
type liveSet struct {
	slots     map[key]time.Duration
	deadlines []time.Duration
	max       int
}

func newLiveSet() *liveSet {
	return &liveSet{slots: make(map[key]time.Duration)}
}

// touch simulates one query for k at now with the given ttl: a live
// entry is a hit (no state change); otherwise a new entry is inserted.
func (s *liveSet) touch(k key, now, ttl time.Duration) bool {
	for len(s.deadlines) > 0 && s.deadlines[0] <= now {
		s.pop()
	}
	if d, ok := s.slots[k]; ok && d > now {
		return true
	}
	s.slots[k] = now + ttl
	s.push(now + ttl)
	s.max = max(s.max, len(s.deadlines))
	if len(s.slots) > 2*len(s.deadlines) { // more dead slots than live
		for slot, d := range s.slots {
			if d <= now {
				delete(s.slots, slot)
			}
		}
	}
	return false
}

// push adds a deadline.
func (s *liveSet) push(d time.Duration) {
	h := append(s.deadlines, d)
	for i := len(h) - 1; i > 0 && h[(i-1)/2] > h[i]; i = (i - 1) / 2 {
		h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
	}
	s.deadlines = h
}

// pop removes the earliest deadline.
func (s *liveSet) pop() {
	h := s.deadlines
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i, c := 0, 1; c < n; i, c = c, 2*c+1 {
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
	}
	s.deadlines = h
}

// BlowupResult reports one resolver's cache sizes and hits with and
// without ECS.
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

// HitRate returns the hits per query in percent of the cache that
// honors ECS scope (withECS) or of the one that ignores it.
func (r BlowupResult) HitRate(withECS bool) float64 {
	if withECS {
		return percent(r.HitsWithECS, r.Queries)
	}
	return percent(r.HitsWithoutECS, r.Queries)
}

// percent returns 100·n/of, or 0 when of is 0.
func percent(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return 100 * float64(n) / float64(of)
}

// Blowup replays one resolver trace through two caches at once — one
// honoring the ECS scope restrictions, one ignoring them — and reports
// each one's maximum size and hits. ttlOverride, when nonzero, replaces
// every record's TTL (the Figure 1 TTL sweep); zero uses the TTLs in the
// trace.
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
		now := rec.Time.Sub(recs[0].Time)
		if withoutECS.touch(keyOf(rec, false), now, ttl) {
			res.HitsWithoutECS++
		}
		if withECS.touch(keyOf(rec, true), now, ttl) {
			res.HitsWithECS++
		}
		res.Queries++
	}
	res.MaxWithECS = withECS.max
	res.MaxWithoutECS = withoutECS.max
	return res
}

// HitRate replays a trace against the serving cache, unbounded, honoring
// ECS scope (honorECS=true) or ignoring it (false), with the coverage
// semantics of RFC 7871: a client inside a wider cached scope hits even
// if its own /24 was never queried. On the generated traces it counts
// exactly Blowup's hits (TestBlowupHitsMatchServingCache); unlike
// Blowup's exact-prefix slots, it also answers a trace that varies a
// question's scope.
func HitRate(recs []traces.Record, honorECS bool) ReplayResult {
	mode := ecscache.IgnoreScope
	if honorECS {
		mode = ecscache.HonorScope
	}
	return CacheReplay(recs, ecscache.Config{Mode: mode, ClampScopeToSource: true})
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
