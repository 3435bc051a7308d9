package ecscache

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
)

// model is the reference the cache is checked against: every resident
// entry in one slice, least recently used first, and every operation a
// full scan of it. Nothing in it is sorted, searched, sharded or
// linked; it is the RFC 7871 §7.3 reuse rule and the cache's accounting
// written down the slow way.
type model struct {
	cfg Config
	ttl *Cache // lends clampTTL, which is not under test here
	all []*modelEntry
	st  CacheStats
}

// modelEntry is a resident entry and the question it answers.
type modelEntry struct {
	Entry
	key Key
}

func newModel(cfg Config) *model { return &model{cfg: cfg, ttl: New(cfg)} }

func (m *model) scope(e *Entry) int {
	if !e.HasECS {
		return 0
	}
	return int(effectiveScope(&m.cfg, e.Subnet))
}

func (m *model) covers(e *Entry, client netip.Addr) bool {
	return m.cfg.Mode == IgnoreScope || !e.HasECS || e.Subnet.Covers(client, m.scope(e))
}

// sameSlot: the newcomer replaces an entry that answers exactly the same
// clients — under IgnoreScope, any entry of the question.
func (m *model) sameSlot(a, b *Entry) bool {
	switch {
	case m.cfg.Mode == IgnoreScope:
		return true
	case !a.HasECS || !b.HasECS:
		return a.HasECS == b.HasECS
	}
	return m.scope(a) == m.scope(b) && a.Subnet.Family == b.Subnet.Family &&
		a.Subnet.Covers(b.Subnet.Addr, m.scope(a))
}

func (m *model) insert(key Key, e Entry, now time.Time) {
	m.ttl.clampTTL(&e, now)
	if e.HasECS && (!e.Subnet.Addr.IsValid() || m.scope(&e) > e.Subnet.Addr.BitLen()) {
		m.st.Rejected++
		return
	}
	m.all = slices.DeleteFunc(m.all, func(old *modelEntry) bool {
		if old.key != key {
			return false
		}
		if !old.Expiry.After(now) {
			m.st.Expiries++
			return true
		}
		return m.sameSlot(&old.Entry, &e)
	})
	m.all = append(m.all, &modelEntry{Entry: e, key: key})
	m.st.HighWater = max(m.st.HighWater, int64(len(m.all)))
	for m.cfg.MaxEntries > 0 && len(m.all) > m.cfg.MaxEntries {
		if m.all[0].Expiry.After(now) {
			m.st.Evictions++
		} else {
			m.st.Expiries++
		}
		m.all = m.all[1:]
	}
	m.st.Live = int64(len(m.all))
}

// lookup returns the live covering entry with the longest scope; at
// scope 0 an ECS entry beats the shared one. fellThrough reports that a
// longer covering entry was passed over only because it had expired.
func (m *model) lookup(key Key, client netip.Addr, now time.Time) (*Entry, bool) {
	rank := func(e *modelEntry) int { return 2*m.scope(&e.Entry) + btoi(e.HasECS) }
	deadRank := -1
	var best *modelEntry
	for _, e := range m.all {
		switch {
		case e.key != key || !m.covers(&e.Entry, client):
		case !e.Expiry.After(now):
			deadRank = max(deadRank, rank(e))
		case best == nil || rank(e) > rank(best):
			best = e
		}
	}
	m.st.Lookups++
	if best == nil {
		m.st.Misses++
		return nil, false
	}
	m.st.Hits++
	if m.cfg.MaxEntries > 0 { // a hit is a use
		i := slices.Index(m.all, best)
		m.all = append(slices.Delete(m.all, i, i+1), best)
	}
	return &best.Entry, deadRank > rank(best)
}

func (m *model) lookupStale(key Key, client netip.Addr, now time.Time, maxStale time.Duration) *Entry {
	var best *Entry
	for _, e := range m.all {
		if e.key != key || !m.covers(&e.Entry, client) ||
			e.Expiry.After(now) || !e.Expiry.Add(maxStale).After(now) ||
			e.RCode != dnswire.RCodeNoError || len(e.Answer) == 0 {
			continue
		}
		if best == nil || e.Expiry.After(best.Expiry) {
			best = &e.Entry
		}
	}
	return best
}

func (m *model) len(now time.Time) int {
	n := 0
	for _, e := range m.all {
		n += btoi(e.Expiry.After(now))
	}
	return n
}

func (m *model) purgeExpired(now time.Time) int {
	before := len(m.all)
	m.all = slices.DeleteFunc(m.all, func(e *modelEntry) bool { return !e.Expiry.After(now) })
	m.st.Live = int64(len(m.all))
	m.st.Expiries += int64(before - len(m.all))
	return before - len(m.all)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// hit is a lookup's result as a pointer, nil on a miss.
func hit(e Entry, ok bool) *Entry {
	if !ok {
		return nil
	}
	return &e
}

// sameHit compares the observable content of two lookup results, the
// records included: an entry that took a neighbour's records must hold
// exactly the ones it was given.
func sameHit(a, b *Entry) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.HasECS != b.HasECS || a.RCode != b.RCode {
		return false
	}
	if a.HasECS && a.Subnet != b.Subnet {
		return false
	}
	return a.Expiry.Equal(b.Expiry) && sameRRs(a.Answer, b.Answer) && sameRRs(a.Authority, b.Authority)
}

// sameRRs compares two sections by value, payload types included; an
// empty section is one whether nil or not.
func sameRRs(a, b []dnswire.RR) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

func diffKey(i int) Key {
	return Key{
		Name:  dnswire.Name(fmt.Sprintf("d%d.example.com.", i)),
		Type:  dnswire.TypeA,
		Class: dnswire.ClassINET,
	}
}

// diffClient draws a client with a bit or two of entropy at each of
// several prefix depths, so that every scope the stream inserts sees
// covered and uncovered clients alike: IPv4, IPv6, and the IPv4 ones
// again in their IPv4-mapped IPv6 form.
func diffClient(rng *rand.Rand) netip.Addr {
	bit := func(shift uint) byte { return byte(rng.Intn(2)) << shift }
	v4 := netip.AddrFrom4([4]byte{10 + bit(0), bit(7) | bit(3), bit(6) | bit(2), byte(rng.Intn(256))})
	switch rng.Intn(4) {
	case 0:
		return netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8 + bit(0), bit(7), bit(0), bit(6), bit(1), bit(7), 0, 0, 0, 0, 0, 0, byte(rng.Intn(256))})
	case 1:
		return netip.AddrFrom16(v4.As16())
	}
	return v4
}

// diffRecords draws the records of a positive answer: a base set of two
// A records and an NS record in authority, or a variant of it that
// differs in exactly one respect. List neighbours therefore often hold
// the same records, which the cache stores once, and otherwise differ in
// one thing a sharing rule could overlook. Every call allocates afresh,
// as a decode does.
func diffRecords(rng *rand.Rand) (answer, authority []dnswire.RR) {
	a := func(last byte) dnswire.RR {
		return dnswire.RR{Name: "d.example.com.", Class: dnswire.ClassINET, TTL: 60,
			Data: &dnswire.ARData{Addr: netip.AddrFrom4([4]byte{192, 0, 2, last})}}
	}
	answer = []dnswire.RR{a(7), a(8)}
	authority = []dnswire.RR{{Name: "example.com.", Class: dnswire.ClassINET, TTL: 60,
		Data: &dnswire.NSRData{Host: "ns1.example.com."}}}
	switch rng.Intn(16) {
	case 0: // TTL
		answer[0].TTL = 61
	case 1: // payload value
		answer[1].Data = &dnswire.ARData{Addr: addr("192.0.2.9")}
	case 2: // payload type, with the same address and presentation form
		answer[1].Data = &dnswire.AAAARData{Addr: addr("192.0.2.8")}
	case 3: // order
		answer[0], answer[1] = answer[1], answer[0]
	case 4: // count
		answer = answer[:1]
	case 5: // owner name
		answer[1].Name = "e.example.com."
	case 6: // class
		answer[0].Class = dnswire.Class(3)
	case 7: // authority content
		authority[0].Data = &dnswire.NSRData{Host: "ns2.example.com."}
	case 8: // authority present or not
		authority = nil
	}
	return answer, authority
}

// diffEntry draws an answer for client: positive or negative, shared or
// filed under client's subnet at a source and scope that cover scope 0,
// scope shorter than, equal to and longer than the source. One answer in
// four lives an hour and the rest 1–45 s, so each key holds lifetimes
// far apart and its earliest expiry is rarely its latest.
func diffEntry(rng *rand.Rand, client netip.Addr, now time.Time) Entry {
	var e Entry
	e.Answer, e.Authority = diffRecords(rng)
	if rng.Intn(8) == 0 {
		e = negEntry(0)
	}
	life := time.Duration(1+rng.Intn(45)) * time.Second
	if rng.Intn(4) == 0 {
		life = time.Hour
	}
	e.Expiry = now.Add(life)
	if rng.Intn(6) == 0 {
		return e // shared
	}
	sources, scopes := []int{8, 16, 20, 24}, []int{0, 0, 8, 12, 16, 20, 22, 24, 28, 32}
	if client.Unmap().Is6() {
		sources, scopes = []int{32, 48, 56, 64}, []int{0, 0, 16, 32, 40, 48, 56, 64, 72}
	}
	e.Subnet = ecsopt.MustNew(client, sources[rng.Intn(len(sources))]).WithScope(scopes[rng.Intn(len(scopes))])
	e.HasECS = true
	return e
}

// runDifferential drives caches built from cfg at each shard count, and
// the model, through one seeded operation stream and demands identical
// observable behaviour at every step — lookup outcomes and winning
// entries, stale fallbacks, live counts, purge totals — and identical
// counters at the end. It returns those counters and how many lookups
// were served by a shorter scope because the longest covering entry had
// expired.
func runDifferential(t *testing.T, cfg Config, shardCounts []int, ops int, seed int64) (CacheStats, int) {
	ref := newModel(cfg)
	caches := make([]*Cache, len(shardCounts))
	for i, n := range shardCounts {
		cfg.Shards = n
		caches[i] = New(cfg)
	}
	rng := rand.New(rand.NewSource(seed))
	now := t0
	fellThrough := 0
	for i := 0; i < ops; i++ {
		now = now.Add(time.Duration(1+rng.Intn(600)) * time.Millisecond)
		client := diffClient(rng)
		key := diffKey(rng.Intn(8))
		switch op := rng.Intn(100); {
		case op < 45:
			e := diffEntry(rng, client, now)
			// Whole milliseconds plus the op number: every expiry is
			// unique, so freshest-entry ties cannot occur.
			e.Expiry = e.Expiry.Add(time.Duration(i))
			ref.insert(key, e, now)
			for _, c := range caches {
				c.Insert(key, e, now)
			}
		case op < 85:
			want, fell := ref.lookup(key, client, now)
			fellThrough += btoi(fell)
			for ci, c := range caches {
				if got := hit(c.Lookup(key, client, now)); !sameHit(want, got) {
					t.Fatalf("op %d: shards=%d Lookup(%v, %s) = %+v, model says %+v",
						i, shardCounts[ci], key.Name, client, got, want)
				}
			}
		case op < 93:
			maxStale := time.Duration(1+rng.Intn(90)) * time.Second
			want := ref.lookupStale(key, client, now, maxStale)
			for ci, c := range caches {
				if got := hit(c.LookupStale(key, client, now, maxStale)); !sameHit(want, got) {
					t.Fatalf("op %d: shards=%d LookupStale(%v, %s, %v) = %+v, model says %+v",
						i, shardCounts[ci], key.Name, client, maxStale, got, want)
				}
			}
		case op < 98:
			want := ref.len(now)
			for ci, c := range caches {
				if got := c.Len(now); got != want {
					t.Fatalf("op %d: shards=%d Len = %d, model says %d", i, shardCounts[ci], got, want)
				}
			}
		default:
			want := ref.purgeExpired(now)
			for ci, c := range caches {
				if got := c.PurgeExpired(now); got != want {
					t.Fatalf("op %d: shards=%d purged %d, model says %d", i, shardCounts[ci], got, want)
				}
			}
		}
	}
	// The model keeps no list order, so it has no neighbours to share
	// with: Shared is for the caches to agree on among themselves.
	shared := caches[0].Stats().Shared
	for ci, c := range caches {
		got := c.Stats()
		if got.Shared != shared {
			t.Fatalf("shards=%d shared %d records, shards=%d shared %d", shardCounts[ci], got.Shared, shardCounts[0], shared)
		}
		if got.Shared = 0; got != ref.st {
			t.Fatalf("final stats diverged:\nshards=%d: %+v\nmodel:    %+v", shardCounts[ci], got, ref.st)
		}
	}
	ref.st.Shared = shared
	return ref.st, fellThrough
}

// TestDifferentialImplementations checks the cache, single-shard and
// sharded, against the model in every scope mode. The shard count is a
// pure performance knob: nothing observable may depend on it.
func TestDifferentialImplementations(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"honor", Config{Mode: HonorScope, ClampScopeToSource: true}},
		{"ignore", Config{Mode: IgnoreScope, ClampScopeToSource: true}},
		{"cap22", Config{Mode: CapScope, CapBits: 22}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			st, fellThrough := runDifferential(t, mode.cfg, []int{1, 8}, 6000, 443)
			if st.Check() != nil || st.Evictions != 0 {
				t.Fatalf("unbounded run ended unbalanced or evicting: %+v", st)
			}
			if st.Hits == 0 || st.Misses == 0 || st.Expiries == 0 || st.Shared == 0 {
				t.Fatalf("the stream exercised nothing: %+v", st)
			}
			if mode.cfg.Mode != IgnoreScope && fellThrough == 0 {
				t.Fatal("no lookup fell through an expired longest scope to a shorter one")
			}
		})
	}
}

// TestDifferentialBounded runs the same stream under a capacity bound:
// the recency order, and therefore every eviction decision and the
// premature-eviction split, must match the model's. One shard, because
// the bound is enforced per shard.
func TestDifferentialBounded(t *testing.T) {
	cfg := Config{Mode: HonorScope, ClampScopeToSource: true, MaxEntries: 24}
	st, _ := runDifferential(t, cfg, []int{1}, 6000, 17)
	if st.Evictions == 0 {
		t.Fatal("bounded run produced no evictions; the test exercised nothing")
	}
}
