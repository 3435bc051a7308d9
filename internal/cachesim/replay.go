package cachesim

import (
	"time"

	"ecsdns/internal/ecscache"
	"ecsdns/internal/ecsopt"
	"ecsdns/internal/traces"
)

// ReplayResult reports a trace replay through the real ecscache — the
// production cache the resolver serves from, with whatever capacity
// bound, shard count and scope mode the config selects — rather than
// the standalone models Blowup and BoundedReplay implement. Running
// both over one trace cross-validates the models against the
// implementation.
type ReplayResult struct {
	Queries int
	// Stats is the cache's own accounting: hits, misses, premature
	// evictions, expiries and the high-water mark.
	Stats ecscache.CacheStats
}

// HitRate returns hits per query in percent.
func (r ReplayResult) HitRate() float64 { return percent(int(r.Stats.Hits), r.Queries) }

// EvictionRate returns premature evictions per 100 queries — the
// metric BoundedReplay reports, read here from the real cache.
func (r ReplayResult) EvictionRate() float64 { return percent(int(r.Stats.Evictions), r.Queries) }

// CacheReplay replays a trace through a real ecscache.Cache built from
// cfg: every record is one client lookup, and every miss inserts the
// record's answer under its observed (source, scope) subnet. Unlike
// HitRate's fixed unbounded configuration this exposes the full cache
// config — capacity bounds, shard counts, TTL clamps — so the §7
// blow-up and eviction experiments can run against the serving
// implementation at production scale.
func CacheReplay(recs []traces.Record, cfg ecscache.Config) ReplayResult {
	cache := ecscache.New(cfg)
	res := ReplayResult{}
	unbounded := cfg.MaxEntries <= 0
	lastPurge := time.Time{}
	for _, rec := range recs {
		key := ecscache.Key{Name: rec.Name, Type: rec.Type, Class: 1}
		if _, ok := cache.Lookup(key, rec.Client, rec.Time); !ok {
			entry := ecscache.Entry{
				Expiry: rec.Time.Add(time.Duration(rec.TTL) * time.Second),
			}
			if rec.HasECS {
				cs, err := ecsopt.New(rec.Client, int(rec.Source))
				if err == nil {
					entry.HasECS = true
					entry.Subnet = cs.WithScope(int(rec.Scope))
				}
			}
			cache.Insert(key, entry, rec.Time)
		}
		res.Queries++
		// A bounded cache caps its own memory; unbounded replays purge
		// periodically to stay affordable on long traces.
		if unbounded && rec.Time.Sub(lastPurge) > 10*time.Minute {
			cache.PurgeExpired(rec.Time)
			lastPurge = rec.Time
		}
	}
	res.Stats = cache.Stats()
	return res
}
