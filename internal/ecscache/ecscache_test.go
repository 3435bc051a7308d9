package ecscache

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
)

var (
	t0   = time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC)
	keyA = Key{Name: "www.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassINET}
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func ecsEntry(prefix string, source, scope int, ttl time.Duration) Entry {
	cs := ecsopt.MustNew(addr(prefix), source).WithScope(scope)
	return Entry{
		Subnet: cs,
		HasECS: true,
		Answer: []dnswire.RR{{
			Name: "www.example.com.", Class: dnswire.ClassINET, TTL: uint32(ttl / time.Second),
			Data: &dnswire.ARData{Addr: addr("192.0.2.1")},
		}},
		Expiry: t0.Add(ttl),
	}
}

func TestHonorScopeHitAndMiss(t *testing.T) {
	c := New(Config{Mode: HonorScope})
	c.Insert(keyA, ecsEntry("203.0.113.0", 24, 24, 20*time.Second), t0)

	if _, ok := c.Lookup(keyA, addr("203.0.113.55"), t0.Add(time.Second)); !ok {
		t.Fatal("client inside /24 scope must hit")
	}
	if _, ok := c.Lookup(keyA, addr("203.0.114.55"), t0.Add(time.Second)); ok {
		t.Fatal("client outside /24 scope must miss")
	}
}

func TestHonorScopeWiderScopeShared(t *testing.T) {
	c := New(Config{Mode: HonorScope})
	// Response scope /16: reusable across /24s in the /16.
	c.Insert(keyA, ecsEntry("203.0.113.0", 24, 16, 20*time.Second), t0)
	if _, ok := c.Lookup(keyA, addr("203.0.200.9"), t0.Add(time.Second)); !ok {
		t.Fatal("client in covering /16 must hit")
	}
	if _, ok := c.Lookup(keyA, addr("203.1.0.9"), t0.Add(time.Second)); ok {
		t.Fatal("client outside /16 must miss")
	}
}

func TestScopeZeroSharedByAll(t *testing.T) {
	c := New(Config{Mode: HonorScope})
	c.Insert(keyA, ecsEntry("203.0.113.0", 24, 0, 20*time.Second), t0)
	for _, client := range []string{"203.0.113.1", "8.8.8.8", "1.2.3.4"} {
		if _, ok := c.Lookup(keyA, addr(client), t0.Add(time.Second)); !ok {
			t.Fatalf("scope-0 entry must serve %s", client)
		}
	}
}

func TestNonECSEntrySharedByAll(t *testing.T) {
	c := New(Config{Mode: HonorScope})
	e := Entry{Expiry: t0.Add(time.Minute)}
	c.Insert(keyA, e, t0)
	if _, ok := c.Lookup(keyA, addr("198.51.100.1"), t0.Add(time.Second)); !ok {
		t.Fatal("non-ECS entry must be shared")
	}
}

func TestLongestScopePreferred(t *testing.T) {
	c := New(Config{Mode: HonorScope})
	wide := ecsEntry("203.0.0.0", 24, 8, time.Minute)
	narrow := ecsEntry("203.0.113.0", 24, 24, time.Minute)
	narrow.RCode = dnswire.RCodeNoError
	narrow.Answer[0].Data = &dnswire.ARData{Addr: addr("192.0.2.99")}
	c.Insert(keyA, wide, t0)
	c.Insert(keyA, narrow, t0)
	e, ok := c.Lookup(keyA, addr("203.0.113.7"), t0.Add(time.Second))
	if !ok {
		t.Fatal("miss")
	}
	if a := e.Answer[0].Data.(*dnswire.ARData).Addr; a != addr("192.0.2.99") {
		t.Fatalf("got wide entry (%s), want narrow", a)
	}
}

func TestExpiryRespected(t *testing.T) {
	c := New(Config{Mode: HonorScope})
	c.Insert(keyA, ecsEntry("203.0.113.0", 24, 24, 20*time.Second), t0)
	if _, ok := c.Lookup(keyA, addr("203.0.113.5"), t0.Add(19*time.Second)); !ok {
		t.Fatal("hit expected before expiry")
	}
	if _, ok := c.Lookup(keyA, addr("203.0.113.5"), t0.Add(20*time.Second)); ok {
		t.Fatal("hit at/after expiry")
	}
}

func TestDistinctSubnetsCoexist(t *testing.T) {
	c := New(Config{Mode: HonorScope})
	for i := 0; i < 10; i++ {
		c.Insert(keyA, ecsEntry(fmt.Sprintf("203.0.%d.0", i), 24, 24, time.Minute), t0)
	}
	if got := c.Len(t0.Add(time.Second)); got != 10 {
		t.Fatalf("Len = %d, want 10 coexisting subnet entries", got)
	}
	if got := c.HighWater(); got != 10 {
		t.Fatalf("HighWater = %d", got)
	}
}

func TestSameSubnetReplaces(t *testing.T) {
	c := New(Config{Mode: HonorScope})
	c.Insert(keyA, ecsEntry("203.0.113.0", 24, 24, time.Minute), t0)
	c.Insert(keyA, ecsEntry("203.0.113.0", 24, 24, 2*time.Minute), t0.Add(time.Second))
	if got := c.Len(t0.Add(2 * time.Second)); got != 1 {
		t.Fatalf("Len = %d after same-subnet reinsert, want 1", got)
	}
	e, ok := c.Lookup(keyA, addr("203.0.113.9"), t0.Add(90*time.Second))
	if !ok || !e.Expiry.Equal(t0.Add(2*time.Minute)) {
		t.Fatalf("replacement entry not the fresh one: %v %v", ok, e)
	}
}

func TestIgnoreScopeServesAnyone(t *testing.T) {
	c := New(Config{Mode: IgnoreScope})
	c.Insert(keyA, ecsEntry("203.0.113.0", 24, 24, time.Minute), t0)
	// A client in a completely different /8 still hits.
	if _, ok := c.Lookup(keyA, addr("8.8.8.8"), t0.Add(time.Second)); !ok {
		t.Fatal("IgnoreScope must serve any client")
	}
	// And inserts replace rather than accumulate.
	c.Insert(keyA, ecsEntry("198.51.100.0", 24, 24, time.Minute), t0.Add(2*time.Second))
	if got := c.Len(t0.Add(3 * time.Second)); got != 1 {
		t.Fatalf("IgnoreScope Len = %d, want 1", got)
	}
}

func TestCapScope22(t *testing.T) {
	c := New(Config{Mode: CapScope, CapBits: 22})
	// Authoritative returns /24 scope but the cache caps at /22.
	c.Insert(keyA, ecsEntry("203.0.112.0", 24, 24, time.Minute), t0)
	// 203.0.115.x is within 203.0.112.0/22 but outside the /24.
	if _, ok := c.Lookup(keyA, addr("203.0.115.9"), t0.Add(time.Second)); !ok {
		t.Fatal("CapScope(22) must serve the whole /22")
	}
	if _, ok := c.Lookup(keyA, addr("203.0.116.9"), t0.Add(time.Second)); ok {
		t.Fatal("client outside the /22 must miss")
	}
}

func TestClampScopeToSource(t *testing.T) {
	c := New(Config{Mode: HonorScope, ClampScopeToSource: true})
	// Authoritative misbehaves: returns scope 28 > source 24. Compliant
	// resolvers clamp to /24.
	c.Insert(keyA, ecsEntry("203.0.113.0", 24, 28, time.Minute), t0)
	if _, ok := c.Lookup(keyA, addr("203.0.113.200"), t0.Add(time.Second)); !ok {
		t.Fatal("clamped entry must cover the whole /24")
	}
	// Without clamping, a /28-scoped entry would not cover .200 when the
	// stored prefix is 203.0.113.0/28.
	c2 := New(Config{Mode: HonorScope})
	c2.Insert(keyA, ecsEntry("203.0.113.0", 24, 28, time.Minute), t0)
	if _, ok := c2.Lookup(keyA, addr("203.0.113.200"), t0.Add(time.Second)); ok {
		t.Fatal("unclamped /28 entry must not cover .200")
	}
}

func TestIPv6ScopedCaching(t *testing.T) {
	c := New(Config{Mode: HonorScope})
	cs := ecsopt.MustNew(addr("2001:db8:42::"), 48).WithScope(48)
	c.Insert(keyA, Entry{Subnet: cs, HasECS: true, Expiry: t0.Add(time.Minute)}, t0)
	if _, ok := c.Lookup(keyA, addr("2001:db8:42:0:1::9"), t0.Add(time.Second)); !ok {
		t.Fatal("IPv6 client inside /48 must hit")
	}
	if _, ok := c.Lookup(keyA, addr("2001:db8:43::9"), t0.Add(time.Second)); ok {
		t.Fatal("IPv6 client outside /48 must miss")
	}
	// An IPv4 client never matches an IPv6-scoped entry.
	if _, ok := c.Lookup(keyA, addr("203.0.113.1"), t0.Add(time.Second)); ok {
		t.Fatal("IPv4 client matched IPv6 entry")
	}
}

func TestStatsCount(t *testing.T) {
	c := New(Config{Mode: HonorScope})
	c.Insert(keyA, ecsEntry("203.0.113.0", 24, 24, time.Minute), t0)
	c.Lookup(keyA, addr("203.0.113.1"), t0.Add(time.Second))   // hit
	c.Lookup(keyA, addr("198.51.100.1"), t0.Add(time.Second))  // miss
	c.Lookup(keyA, addr("203.0.113.2"), t0.Add(2*time.Minute)) // expired: miss
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("Stats = %d/%d, want 1/2", st.Hits, st.Misses)
	}
	if st.Check() != nil || st.Lookups != 3 {
		t.Fatalf("lookup partition broken: %+v", st)
	}
}

func TestPurgeExpired(t *testing.T) {
	c := New(Config{Mode: HonorScope})
	c.Insert(keyA, ecsEntry("203.0.113.0", 24, 24, 10*time.Second), t0)
	c.Insert(keyA, ecsEntry("203.0.114.0", 24, 24, time.Hour), t0)
	if removed := c.PurgeExpired(t0.Add(30 * time.Second)); removed != 1 {
		t.Fatalf("removed %d, want 1", removed)
	}
	if got := c.Len(t0.Add(30 * time.Second)); got != 1 {
		t.Fatalf("Len after purge = %d", got)
	}
	// High water remembers the peak of 2.
	if c.HighWater() != 2 {
		t.Fatalf("HighWater = %d", c.HighWater())
	}
}

func TestFlushKeepsHighWater(t *testing.T) {
	c := New(Config{Mode: HonorScope})
	c.Insert(keyA, ecsEntry("203.0.113.0", 24, 24, time.Minute), t0)
	c.Flush()
	if got := c.Len(t0); got != 0 {
		t.Fatalf("Len after flush = %d", got)
	}
	if c.HighWater() != 1 {
		t.Fatalf("HighWater reset by flush: %d", c.HighWater())
	}
}

func TestRemainingTTL(t *testing.T) {
	e := ecsEntry("203.0.113.0", 24, 24, 20*time.Second)
	if got := e.RemainingTTL(t0.Add(5 * time.Second)); got != 15 {
		t.Fatalf("RemainingTTL = %d, want 15", got)
	}
	if got := e.RemainingTTL(t0.Add(time.Hour)); got != 0 {
		t.Fatalf("RemainingTTL past expiry = %d", got)
	}
}

func TestTTLBound(t *testing.T) {
	rrs := []dnswire.RR{
		{TTL: 300}, {TTL: 20}, {TTL: 60},
	}
	if got := TTLBound(t0, rrs, time.Hour); !got.Equal(t0.Add(20 * time.Second)) {
		t.Fatalf("TTLBound = %v", got)
	}
	if got := TTLBound(t0, nil, 30*time.Second); !got.Equal(t0.Add(30 * time.Second)) {
		t.Fatalf("TTLBound fallback = %v", got)
	}
}

// Property: under HonorScope, a lookup hit always covers the client.
func TestPropertyHitsCoverClient(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	c := New(Config{Mode: HonorScope, ClampScopeToSource: true})
	now := t0
	for i := 0; i < 3000; i++ {
		var raw [4]byte
		rng.Read(raw[:])
		client := netip.AddrFrom4(raw)
		if rng.Intn(2) == 0 {
			source := rng.Intn(25)
			scope := rng.Intn(33)
			cs := ecsopt.MustNew(client, source).WithScope(scope)
			c.Insert(keyA, Entry{Subnet: cs, HasECS: true, Expiry: now.Add(time.Duration(rng.Intn(60)) * time.Second)}, now)
		} else {
			e, ok := c.Lookup(keyA, client, now)
			if ok && e.HasECS {
				scope := int(ecsopt.ClampScope(e.Subnet.SourcePrefix, e.Subnet.ScopePrefix))
				if !e.Subnet.Covers(client, scope) {
					t.Fatalf("hit entry %v does not cover client %s at scope %d", e.Subnet, client, scope)
				}
				if !e.Expiry.After(now) {
					t.Fatalf("hit on expired entry")
				}
			}
		}
		now = now.Add(time.Duration(rng.Intn(3)) * time.Second)
	}
}

// Property: live count from Len never exceeds the high-water mark.
func TestPropertyHighWaterInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := New(Config{Mode: HonorScope})
	now := t0
	for i := 0; i < 2000; i++ {
		key := Key{Name: dnswire.Name(fmt.Sprintf("h%d.example.com.", rng.Intn(20))), Type: dnswire.TypeA, Class: dnswire.ClassINET}
		c.Insert(key, ecsEntry(fmt.Sprintf("203.0.%d.0", rng.Intn(40)), 24, 24, time.Duration(1+rng.Intn(30))*time.Second), now)
		if c.Len(now) > c.HighWater() {
			t.Fatalf("Len %d exceeds high water %d", c.Len(now), c.HighWater())
		}
		now = now.Add(time.Duration(rng.Intn(2000)) * time.Millisecond)
		if rng.Intn(10) == 0 {
			c.PurgeExpired(now)
		}
	}
}

// Len returns the number of live entries at `now` (expired entries still
// resident are not counted). A question that is not due is live
// throughout and is counted without reading its list.
func (c *Cache) Len(now time.Time) int {
	at, n := unixNano(now), 0
	for _, sh := range c.shards {
		sh.mu.RLock()
		for _, q := range sh.entries {
			if at < q.due {
				n += len(q.list)
				continue
			}
			for _, r := range q.list {
				if r.expiry.After(now) {
					n++
				}
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// Flush empties the cache without resetting the high-water mark or the
// cumulative counters.
func (c *Cache) Flush() {
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.owner.addLive(-sh.size)
		sh.size = 0
		sh.entries = make(map[Key]*question)
		sh.lru.init()
		sh.mu.Unlock()
	}
}
