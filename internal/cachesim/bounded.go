package cachesim

import (
	"container/list"
	"time"

	"ecsdns/internal/traces"
)

// BoundedResult reports a capacity-limited LRU replay: the §7 discussion
// turns on how much capacity a resolver must add to keep premature
// evictions rare once ECS fragments its entries; this simulation
// measures exactly that.
type BoundedResult struct {
	Capacity int
	Queries  int
	Hits     int
	// Evictions counts entries pushed out by capacity pressure while
	// still alive (premature evictions); entries that simply expired do
	// not count.
	Evictions int
}

// HitRate returns hits/queries in percent.
func (r BoundedResult) HitRate() float64 { return percent(r.Hits, r.Queries) }

// EvictionRate returns premature evictions per 100 queries.
func (r BoundedResult) EvictionRate() float64 { return percent(r.Evictions, r.Queries) }

// boundedEntry is one LRU slot.
type boundedEntry struct {
	key    key
	expiry time.Time
}

// BoundedReplay replays a trace through an LRU cache holding at most
// capacity entries. honorECS keys entries by (name, type, scoped prefix)
// as a compliant resolver must; otherwise by the question alone.
func BoundedReplay(recs []traces.Record, capacity int, honorECS bool) BoundedResult {
	res := BoundedResult{Capacity: capacity}
	if capacity <= 0 {
		res.Queries = len(recs)
		return res
	}
	lru := list.New() // front = most recent
	slots := make(map[key]*list.Element, capacity)

	for _, rec := range recs {
		res.Queries++
		k := keyOf(rec, honorECS)
		if el, ok := slots[k]; ok {
			be := el.Value.(*boundedEntry)
			if be.expiry.After(rec.Time) {
				res.Hits++
				lru.MoveToFront(el)
				continue
			}
			// Expired in place: refresh without counting an eviction.
			be.expiry = rec.Time.Add(time.Duration(rec.TTL) * time.Second)
			lru.MoveToFront(el)
			continue
		}
		// Miss: insert, evicting the coldest entry if full.
		if lru.Len() >= capacity {
			tail := lru.Back()
			be := tail.Value.(*boundedEntry)
			if be.expiry.After(rec.Time) {
				res.Evictions++
			}
			delete(slots, be.key)
			lru.Remove(tail)
		}
		slots[k] = lru.PushFront(&boundedEntry{
			key:    k,
			expiry: rec.Time.Add(time.Duration(rec.TTL) * time.Second),
		})
	}
	return res
}
