// Package ecscache implements an ECS-aware DNS cache with the semantics
// of RFC 7871 §7.3: answers are stored per (question, client-subnet at
// the authoritative scope) and reused only for clients the scope covers.
//
// Because the paper's subject is resolvers that implement these rules
// incorrectly, the cache's scope handling is pluggable: the compliant
// behavior, the scope-ignoring behavior exhibited by over half the
// studied resolvers, and the /22-capping behavior are all selectable, so
// the same resolver code can reproduce each observed behavior class.
//
// The storage layer is built for production load. A question's entries
// live in one slice sorted by (address family, effective scope longest
// first, prefix at that scope) with the non-ECS shared entry last, and
// a lookup binary-searches it once per distinct scope length present:
// the cost the paper's §7 blow-up puts on a resolver — thousands of
// client subnets under one name — is paid in memory, an 80-byte resident
// record and a pointer per subnet, not in lookup time; records equal to
// a list neighbour's are shared, and only records no neighbour holds are
// copied in. The key space is hash-partitioned across N independently
// locked shards (Config.Shards), each guarded by
// its own sync.RWMutex, so concurrent lookups on different shards never
// contend. A configured capacity bound (Config.MaxEntries) is enforced
// per shard with an O(1) intrusive-list LRU: the eviction counters
// distinguish entries pushed out while still alive (premature evictions
// — the §7 operator cost the bounded cachesim replays model) from
// entries that merely expired. An insert collects its question's expired
// entries, but only once one of them can have expired: each question
// keeps a lower bound on its earliest expiry, so filling a name with
// thousands of subnets costs each insert a search and a splice, not a
// read of every entry already there.
// Negative answers are bounded by Config.NegativeTTL, positive TTLs are
// raised to MinTTL, every TTL is capped at MaxTTL (the cap wins over the
// floor), and the singleflight layer (Do)
// collapses a thundering herd of identical misses into one upstream
// query. Scope-mode semantics are byte-for-byte identical at every
// shard count; the differential tests enforce this against a naive
// full-scan model of the cache.
package ecscache

import (
	"net/netip"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
)

// Key identifies a cached question.
type Key struct {
	Name  dnswire.Name
	Type  dnswire.Type
	Class dnswire.Class
}

// KeyOf builds a Key from a question.
func KeyOf(q dnswire.Question) Key {
	return Key{Name: q.Name, Type: q.Type, Class: q.Class}
}

// Entry is one cached answer, as Insert takes it and a lookup returns
// it. The cache does not keep the Entry: it packs what Insert is given
// into an 80-byte resident record and unpacks a copy on every hit, so an
// Entry a caller holds is its own. Insert copies what it keeps and keeps
// none of the caller's memory.
type Entry struct {
	// Subnet is the response ECS option (source + scope) this answer was
	// stored under; the zero value (HasECS false) marks a non-ECS answer
	// shared by all clients. It reads back as it was inserted, but for
	// an IPv6 zone, which no ECS option carries.
	Subnet ecsopt.ClientSubnet
	HasECS bool
	RCode  dnswire.RCode
	// Answer and Authority are the records. Insert only reads the ones
	// it is given; the ones a lookup returns are the cache's, and they
	// are immutable: the cache, every entry that shares them and every
	// response built from them read them and nobody writes one. Insert
	// gives an entry the records of a list neighbour holding the same
	// records in the same order, so equal answers under one name are
	// stored once, however many subnets they were given to. An empty
	// section reads back nil.
	Answer    []dnswire.RR
	Authority []dnswire.RR
	// Expiry is the absolute virtual time the entry dies; it reads back
	// exactly as Insert left it, monotonic reading and location included.
	Expiry time.Time
	// Stored is not kept: Insert ignores it and a lookup returns it zero.
	// It stays only for callers that still set it, and goes with the
	// benchmark module's unpinning (ROADMAP.md item 1(d)).
	Stored time.Time
}

// RemainingTTL returns the seconds of life left at `now`, rounded up so
// that any still-live entry advertises at least 1 (a truncating version
// served TTL 0 for entries with up to 999ms of life, which downstream
// caches treat as uncacheable). Expired entries return 0.
func (e *Entry) RemainingTTL(now time.Time) uint32 {
	d := e.Expiry.Sub(now)
	if d <= 0 {
		return 0
	}
	return uint32((d + time.Second - 1) / time.Second)
}

// ScopeMode selects how the cache applies ECS scope, modeling the
// behavior classes of §6.3 of the paper.
type ScopeMode int

// Scope-handling behavior classes.
const (
	// HonorScope is the RFC-compliant behavior: reuse requires the
	// client to fall within the stored prefix at the stored scope.
	HonorScope ScopeMode = iota
	// IgnoreScope reuses any live entry for the question irrespective
	// of the client address — the behavior of 103 of the 203 resolvers
	// the paper could study.
	IgnoreScope
	// CapScope caps the effective scope of an IPv4 entry at CapBits on
	// insert and lookup — the 8 resolvers imposing a /22 ceiling, an
	// IPv4 observation. IPv6 entries are honoured as HonorScope does.
	CapScope
)

// Config parameterizes a cache.
type Config struct {
	Mode ScopeMode
	// CapBits is the IPv4 scope ceiling used when Mode is CapScope.
	CapBits uint8
	// ClampScopeToSource applies the RFC rule that a response scope
	// longer than the query source prefix must not be cached wider than
	// the source; compliant resolvers set this.
	ClampScopeToSource bool
	// NegativeTTL bounds how long entries with non-NoError rcodes live
	// when the response provides no better bound. Zero means 30s.
	NegativeTTL time.Duration
	// MinTTL raises the lifetime of live NoError entries to a floor,
	// defending the cache against pathological 0/1-second TTLs. Zero
	// disables the floor.
	MinTTL time.Duration
	// MaxTTL caps the lifetime of every entry, bounding how long a
	// poisoned or misconfigured record can persist; it wins over a
	// larger MinTTL. Zero disables the ceiling.
	MaxTTL time.Duration
	// Shards is the number of independently locked storage shards the
	// key space is hashed across (rounded up to a power of two). 0 and
	// 1 both mean a single shard — the original single-mutex cache.
	Shards int
	// MaxEntries bounds the number of resident entries across all
	// shards; the bound is split evenly per shard (each shard keeps at
	// least one slot, so the effective total is
	// max(MaxEntries, Shards)). Zero means unbounded. When bounded,
	// least-recently-used entries are evicted in O(1).
	MaxEntries int
}

// Cache is a scope-aware DNS cache. It is safe for concurrent use.
type Cache struct {
	cfg    Config
	shards []*shard
	mask   uint64
	stats  cacheCounters
	flight flightGroup
}

// New creates a cache with the given configuration.
func New(cfg Config) *Cache {
	if cfg.NegativeTTL == 0 {
		cfg.NegativeTTL = 30 * time.Second
	}
	n := shardCount(cfg.Shards)
	c := &Cache{
		cfg:    cfg,
		shards: make([]*shard, n),
		mask:   uint64(n - 1),
	}
	for i := range c.shards {
		c.shards[i] = newShard(c, shardCapacity(cfg.MaxEntries, n, i))
	}
	c.flight.init()
	return c
}

// shardCount rounds the configured shard count up to a power of two so
// shard selection is a mask, not a modulo.
func shardCount(n int) int {
	if n < 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// shardCapacity splits a global entry bound across n shards: every
// shard gets the floor share, the first remainder shards one more, and
// a bounded cache never hands a shard zero slots.
func shardCapacity(max, n, i int) int {
	if max <= 0 {
		return 0
	}
	cap := max / n
	if i < max%n {
		cap++
	}
	if cap == 0 {
		cap = 1
	}
	return cap
}

// shardFor hashes key to its shard (FNV-1a over name, type and class).
func (c *Cache) shardFor(key Key) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key.Name); i++ {
		h ^= uint64(key.Name[i])
		h *= prime64
	}
	h ^= uint64(key.Type)
	h *= prime64
	h ^= uint64(key.Class)
	h *= prime64
	return c.shards[h&c.mask]
}

// effectiveScope returns the number of bits the cache files and matches
// an ECS entry's subnet at.
func effectiveScope(cfg *Config, cs ecsopt.ClientSubnet) uint8 {
	scope := cs.ScopePrefix
	if cfg.ClampScopeToSource {
		scope = ecsopt.ClampScope(cs.SourcePrefix, scope)
	}
	if cfg.Mode == CapScope && scope > cfg.CapBits && cs.Addr.Is4() {
		scope = cfg.CapBits
	}
	return scope
}

// Lookup finds a live entry for key usable by client. Among several
// covering entries the longest scope (most specific) wins, and an ECS
// entry at scope 0 wins over the shared non-ECS entry. The bool reports
// a hit; hit/miss counters are updated.
func (c *Cache) Lookup(key Key, client netip.Addr, now time.Time) (Entry, bool) {
	c.stats.lookups.Add(1)
	e, ok := c.shardFor(key).lookup(key, client, now)
	if !ok {
		c.stats.misses.Add(1)
		return Entry{}, false
	}
	c.stats.hits.Add(1)
	return e, true
}

// Hit is Lookup for a caller that calls Lookup again when it misses: a
// hit is counted and spliced to the front as Lookup does it, and a miss
// changes nothing, so the Lookup that follows it is the only one
// counted. A resolver that answers hits early and defers misses uses it
// to count each query once.
func (c *Cache) Hit(key Key, client netip.Addr, now time.Time) (Entry, bool) {
	e, ok := c.shardFor(key).lookup(key, client, now)
	if !ok {
		return Entry{}, false
	}
	c.stats.lookups.Add(1)
	c.stats.hits.Add(1)
	return e, true
}

// LookupStale finds the best expired-but-recent entry for key usable by
// client: a positive answer whose expiry is no more than maxStale in the
// past, honoring the cache's scope mode. It backs RFC 8767-style stale
// serving when every upstream retry has failed, so only entries Lookup
// would have declined solely for being expired qualify. The freshest
// (latest-expiring) covering entry wins. Hit/miss counters (and LRU
// recency) are not touched: a stale answer is a degraded miss, not a
// hit.
func (c *Cache) LookupStale(key Key, client netip.Addr, now time.Time, maxStale time.Duration) (Entry, bool) {
	return c.shardFor(key).lookupStale(key, client, now, maxStale)
}

// Insert stores an entry for key, replacing the entry filed under the
// same effective prefix, if any. When any entry for the key can have
// expired, all expired entries for the key are collected in passing,
// other subnets' included; otherwise the key's entries are not read.
// When the cache is over its capacity bound the least-recently-used
// resident entries are evicted. e.Stored is ignored.
//
// Insert copies what it keeps and keeps none of the caller's memory: it
// takes key and e's records on loan, for the call only, and their names
// may be views of a query a later decode rewrites. A question the cache
// has not held is filed under a copy of key's name. When a neighbour in
// the key's list holds the same records, the stored entry takes that
// neighbour's; otherwise Insert stores a copy of e's, names and payloads
// included, in which an owner name equal to the key's is the key's
// string. So a caller may decode its next answer over e's records as
// soon as Insert returns. It returns the sections it stored, which are
// immutable, and true.
//
// The answer to an opt-out, an ECS entry of family 0 and source 0
// (RFC 7871 §7.1.2), has no address and is good for every client, as a
// scope-0 answer is: it is filed in the shared slot. Other entries
// claiming ECS whose address cannot produce a prefix at the effective
// scope (invalid address, or a scope wider than the address family
// holds) are rejected outright: they could only be dead weight that
// matches no client, or an answer served to clients it was never meant
// for. A rejected entry's records are not read, and Insert returns nil
// sections and false.
func (c *Cache) Insert(key Key, e Entry, now time.Time) (answer, authority []dnswire.RR, ok bool) {
	c.clampTTL(&e, now)
	fam, bits := famShared, uint8(0)
	if e.HasECS && !(e.Subnet.Family == ecsopt.FamilyNone && e.Subnet.SourcePrefix == 0) {
		scope, addr := effectiveScope(&c.cfg, e.Subnet), e.Subnet.Addr
		if !addr.IsValid() || int(scope) > addr.BitLen() {
			c.stats.rejected.Add(1)
			return nil, nil, false
		}
		// IgnoreScope keeps one answer per question and serves it to
		// anyone: every entry is filed in the shared slot.
		if c.cfg.Mode != IgnoreScope {
			fam, bits = famOf(addr), scope
		}
	}
	recs := c.shardFor(key).insert(key, newRecord(&e, fam, bits), e.Answer, e.Authority, now)
	if recs == nil {
		return nil, nil, true
	}
	return recs.answer, recs.authority, true
}

// clampTTL applies the insert-time lifetime rules: the MinTTL floor for
// live positive answers, the NegativeTTL bound for non-NoError answers
// (NXDOMAIN and friends), which caps whatever the response's SOA-derived
// lifetime asked for, and last the MaxTTL ceiling, which therefore wins
// over a larger MinTTL.
func (c *Cache) clampTTL(e *Entry, now time.Time) {
	ttl := e.Expiry.Sub(now)
	if ttl <= 0 {
		return // dead on arrival stays dead
	}
	if e.RCode == dnswire.RCodeNoError {
		if c.cfg.MinTTL > 0 && ttl < c.cfg.MinTTL {
			ttl = c.cfg.MinTTL
		}
	} else if c.cfg.NegativeTTL > 0 && ttl > c.cfg.NegativeTTL {
		ttl = c.cfg.NegativeTTL
	}
	if c.cfg.MaxTTL > 0 && ttl > c.cfg.MaxTTL {
		ttl = c.cfg.MaxTTL
	}
	e.Expiry = now.Add(ttl)
}

// TTLBound computes an entry expiry from a response's minimum answer TTL,
// bounded below by zero.
func TTLBound(now time.Time, rrs []dnswire.RR, fallback time.Duration) time.Time {
	minTTL := uint32(0)
	have := false
	for _, rr := range rrs {
		if !have || rr.TTL < minTTL {
			minTTL = rr.TTL
			have = true
		}
	}
	if !have {
		return now.Add(fallback)
	}
	return now.Add(time.Duration(minTTL) * time.Second)
}

// HighWater returns the most entries ever resident at once. Resident is
// not live: an entry past its expiry counts until an insert for its
// question, an eviction or PurgeExpired collects it, so this can exceed
// the most entries live at once. The paper's blow-up factor counts live
// entries; cachesim.Blowup computes it.
func (c *Cache) HighWater() int {
	return int(c.stats.high.Load())
}

// PurgeExpired drops entries dead at `now` and returns how many were
// removed. A key none of whose entries can have expired is skipped
// without reading its entries.
func (c *Cache) PurgeExpired(now time.Time) int {
	removed := 0
	for _, sh := range c.shards {
		removed += sh.purgeExpired(now)
	}
	return removed
}
