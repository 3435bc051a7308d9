package ecscache

import (
	"testing"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
)

// negEntry builds a negative (NXDOMAIN) entry with the given lifetime.
func negEntry(ttl time.Duration) Entry {
	return Entry{
		RCode: dnswire.RCodeNXDomain,
		Authority: []dnswire.RR{{
			Name: "example.com.", Class: dnswire.ClassINET, TTL: uint32(ttl / time.Second),
			Data: &dnswire.SOARData{MName: "ns.example.com.", Minimum: uint32(ttl / time.Second)},
		}},
		Expiry: t0.Add(ttl),
	}
}

// Regression: Config.NegativeTTL existed but was never consulted, so a
// negative answer claiming an hour of life was cached for the full hour.
// The cap must bound non-NoError entries at insert.
func TestNegativeTTLCapsNegativeEntries(t *testing.T) {
	c := New(Config{Mode: HonorScope, NegativeTTL: 5 * time.Second})
	c.Insert(keyA, negEntry(time.Hour), t0)
	if _, ok := c.Lookup(keyA, addr("203.0.113.1"), t0.Add(4*time.Second)); !ok {
		t.Fatal("negative entry must live inside the NegativeTTL window")
	}
	if _, ok := c.Lookup(keyA, addr("203.0.113.1"), t0.Add(6*time.Second)); ok {
		t.Fatal("negative entry outlived NegativeTTL")
	}
}

func TestNegativeTTLDefaultThirtySeconds(t *testing.T) {
	c := New(Config{Mode: HonorScope})
	c.Insert(keyA, negEntry(time.Hour), t0)
	if _, ok := c.Lookup(keyA, addr("203.0.113.1"), t0.Add(29*time.Second)); !ok {
		t.Fatal("negative entry must live to the default 30s cap")
	}
	if _, ok := c.Lookup(keyA, addr("203.0.113.1"), t0.Add(31*time.Second)); ok {
		t.Fatal("negative entry outlived the default cap")
	}
}

// The cap must never shorten positive answers: cachesim's §7 replays
// insert NoError entries whose lifetimes are the experiment's subject.
func TestNegativeTTLLeavesPositiveEntriesAlone(t *testing.T) {
	c := New(Config{Mode: HonorScope, NegativeTTL: 5 * time.Second})
	c.Insert(keyA, ecsEntry("203.0.113.0", 24, 24, time.Hour), t0)
	if _, ok := c.Lookup(keyA, addr("203.0.113.1"), t0.Add(30*time.Minute)); !ok {
		t.Fatal("NegativeTTL must not cap NoError entries")
	}
}

// A sub-NegativeTTL negative answer keeps its own (shorter) lifetime.
func TestNegativeTTLIsACeilingNotAFloor(t *testing.T) {
	c := New(Config{Mode: HonorScope, NegativeTTL: time.Minute})
	c.Insert(keyA, negEntry(2*time.Second), t0)
	if _, ok := c.Lookup(keyA, addr("203.0.113.1"), t0.Add(3*time.Second)); ok {
		t.Fatal("short negative entry must keep its own expiry")
	}
}

func TestMaxTTLCapsEveryEntry(t *testing.T) {
	c := New(Config{Mode: HonorScope, MaxTTL: time.Minute})
	c.Insert(keyA, ecsEntry("203.0.113.0", 24, 24, time.Hour), t0)
	if _, ok := c.Lookup(keyA, addr("203.0.113.1"), t0.Add(59*time.Second)); !ok {
		t.Fatal("entry must live to the MaxTTL cap")
	}
	if _, ok := c.Lookup(keyA, addr("203.0.113.1"), t0.Add(61*time.Second)); ok {
		t.Fatal("entry outlived MaxTTL")
	}
}

// Regression: clampTTL applied the ceiling before the floor, so with a
// MinTTL above MaxTTL an entry lived the MinTTL, although MaxTTL caps the
// lifetime of every entry.
func TestMaxTTLWinsOverMinTTL(t *testing.T) {
	c := New(Config{Mode: HonorScope, MinTTL: 10 * time.Minute, MaxTTL: time.Minute})
	for _, ttl := range []time.Duration{time.Second, time.Hour} {
		c.Insert(keyA, ecsEntry("203.0.113.0", 24, 24, ttl), t0)
		if _, ok := c.Lookup(keyA, addr("203.0.113.1"), t0.Add(59*time.Second)); !ok {
			t.Fatalf("%v answer: entry must live to the MaxTTL cap", ttl)
		}
		if _, ok := c.Lookup(keyA, addr("203.0.113.1"), t0.Add(61*time.Second)); ok {
			t.Fatalf("%v answer: entry outlived MaxTTL under a larger MinTTL", ttl)
		}
	}
}

func TestMinTTLFloorsPositiveOnly(t *testing.T) {
	c := New(Config{Mode: HonorScope, MinTTL: 10 * time.Second})
	c.Insert(keyA, ecsEntry("203.0.113.0", 24, 24, time.Second), t0)
	if _, ok := c.Lookup(keyA, addr("203.0.113.1"), t0.Add(9*time.Second)); !ok {
		t.Fatal("MinTTL must raise a 1s positive answer to the floor")
	}
	if _, ok := c.Lookup(keyA, addr("203.0.113.1"), t0.Add(10*time.Second)); ok {
		t.Fatal("floored entry must still die at the floor")
	}
	// Negative answers are not floored — RFC 2308 wants them short.
	c2 := New(Config{Mode: HonorScope, MinTTL: 10 * time.Second})
	c2.Insert(keyA, negEntry(time.Second), t0)
	if _, ok := c2.Lookup(keyA, addr("203.0.113.1"), t0.Add(5*time.Second)); ok {
		t.Fatal("MinTTL must not stretch negative answers")
	}
}

// Dead-on-arrival entries stay dead: the MinTTL floor must not revive
// an entry whose expiry already passed.
func TestMinTTLDoesNotReviveExpired(t *testing.T) {
	c := New(Config{Mode: HonorScope, MinTTL: 10 * time.Second})
	e := ecsEntry("203.0.113.0", 24, 24, time.Minute)
	c.Insert(keyA, e, t0.Add(2*time.Minute)) // inserted after its own expiry
	if _, ok := c.Lookup(keyA, addr("203.0.113.1"), t0.Add(2*time.Minute+time.Second)); ok {
		t.Fatal("dead-on-arrival entry revived by MinTTL")
	}
}

// TestOptOutFiledShared: the answer to an opt-out (family 0, source 0,
// RFC 7871 §7.1.2) has no address and serves every client of either
// family, as a scope-0 answer does, whatever the scope mode.
func TestOptOutFiledShared(t *testing.T) {
	for _, mode := range []ScopeMode{HonorScope, IgnoreScope, CapScope} {
		c := New(Config{Mode: mode, CapBits: 22, ClampScopeToSource: true})
		_, _, ok := c.Insert(keyA, Entry{
			Subnet: ecsopt.Zero().WithScope(24), HasECS: true,
			Answer: []dnswire.RR{{Name: "www.example.com.", Class: dnswire.ClassINET, TTL: 60,
				Data: &dnswire.ARData{Addr: addr("192.0.2.1")}}},
			Expiry: t0.Add(time.Minute),
		}, t0)
		if !ok || c.Stats().Rejected != 0 {
			t.Fatalf("mode %d: the opt-out's answer was rejected", mode)
		}
		for _, client := range []string{"8.8.8.8", "203.0.113.1", "2001:db8::1"} {
			if e, ok := c.Lookup(keyA, addr(client), t0.Add(time.Second)); !ok || !e.HasECS || e.Subnet.ScopePrefix != 24 {
				t.Fatalf("mode %d: client %s got %+v (hit %v), want the opt-out's answer as stored", mode, client, e, ok)
			}
		}
	}
}

// Regression: entries claiming ECS but carrying a subnet that cannot
// produce a prefix at the effective scope were stored anyway — as dead
// weight that matched no one, or filed in the shared slot and served to
// EVERY client. Both ways to be unprefixable (no valid address; a scope
// longer than the address) must be rejected outright.
func TestInvalidECSRejectedBothPaths(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"linear", Config{Mode: HonorScope}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			c := New(mode.cfg)

			// An IPv4 subnet without an address, with HasECS set — what a
			// resolver builds when making the subnet fails but the
			// sent-ECS flag is already up. (The zero ClientSubnet, family
			// 0 and source 0, is an opt-out's, which serves every client:
			// TestOptOutFiledShared.)
			c.Insert(keyA, Entry{
				Subnet: ecsopt.ClientSubnet{Family: ecsopt.FamilyIPv4, SourcePrefix: 24, ScopePrefix: 24}, HasECS: true,
				Answer: []dnswire.RR{{Name: "www.example.com.", Class: dnswire.ClassINET, TTL: 60,
					Data: &dnswire.ARData{Addr: addr("192.0.2.1")}}},
				Expiry: t0.Add(time.Minute),
			}, t0)
			for _, client := range []string{"8.8.8.8", "203.0.113.1", "2001:db8::1"} {
				if _, ok := c.Lookup(keyA, addr(client), t0.Add(time.Second)); ok {
					t.Fatalf("invalid-subnet entry served to %s", client)
				}
			}

			// A scope beyond the address family's bit length (scope /40 on
			// an IPv4 subnet) — unprefixable no matter the client.
			over := ecsEntry("203.0.113.0", 24, 24, time.Minute)
			over.Subnet.ScopePrefix = 40
			c.Insert(keyA, over, t0)
			if _, ok := c.Lookup(keyA, addr("203.0.113.1"), t0.Add(time.Second)); ok {
				t.Fatal("over-scope entry served")
			}

			if got := c.Len(t0.Add(time.Second)); got != 0 {
				t.Fatalf("rejected entries left %d residents", got)
			}
			st := c.Stats()
			if st.Rejected != 2 {
				t.Fatalf("Rejected = %d, want 2", st.Rejected)
			}
			if st.HighWater != 0 {
				t.Fatalf("rejected entries moved the high-water mark: %d", st.HighWater)
			}
		})
	}
}

// Regression: an ECS entry at effective scope 0 and the shared non-ECS
// entry under the same key both cover every client of the family, and
// which one a lookup got depended on which was inserted first. The ECS
// answer is the more specific statement (it is confined to its address
// family) and wins in either order; other families and a dead ECS entry
// still get the shared one.
func TestScopeZeroBeatsSharedEitherOrder(t *testing.T) {
	shared := Entry{Expiry: t0.Add(time.Hour)}
	zero := ecsEntry("203.0.113.0", 24, 0, time.Minute)
	for _, order := range [][]Entry{{shared, zero}, {zero, shared}} {
		c := New(Config{Mode: HonorScope})
		for _, e := range order {
			c.Insert(keyA, e, t0)
		}
		if e, ok := c.Lookup(keyA, addr("8.8.8.8"), t0.Add(time.Second)); !ok || !e.HasECS {
			t.Fatalf("inserted HasECS=%v first: IPv4 client got %+v, want the scope-0 ECS entry", order[0].HasECS, e)
		}
		if e, ok := c.Lookup(keyA, addr("2001:db8::1"), t0.Add(time.Second)); !ok || e.HasECS {
			t.Fatalf("inserted HasECS=%v first: IPv6 client got %+v, want the shared entry", order[0].HasECS, e)
		}
		if e, ok := c.Lookup(keyA, addr("8.8.8.8"), t0.Add(2*time.Minute)); !ok || e.HasECS {
			t.Fatalf("inserted HasECS=%v first: after the ECS entry died got %+v, want the shared entry", order[0].HasECS, e)
		}
	}
}

// The hit path must not allocate however many subnets a name has: the
// covering walk runs under the shard lock on every served query.
func TestLookupZeroAllocsAtHighFanout(t *testing.T) {
	c := New(Config{Mode: HonorScope, ClampScopeToSource: true})
	const fanout = 2048
	benchFill(c, []Key{keyA}, fanout)
	n := 0
	allocs := testing.AllocsPerRun(200, func() {
		n++
		_, client := benchSubnet(n * 769 % fanout)
		if _, ok := c.Lookup(keyA, client, benchNow); !ok {
			t.Fatal("unexpected miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("Lookup on a %d-entry key = %v allocs/op, want 0", fanout, allocs)
	}
}

// Regression: RemainingTTL truncated, so an entry with up to 999ms of
// life advertised TTL 0 — which downstream caches treat as
// uncacheable. Any live entry must advertise at least 1.
func TestRemainingTTLRoundsUp(t *testing.T) {
	cases := []struct {
		left time.Duration
		want uint32
	}{
		{0, 0},
		{-time.Second, 0},
		{time.Millisecond, 1},
		{500 * time.Millisecond, 1},
		{999 * time.Millisecond, 1},
		{time.Second, 1},
		{1001 * time.Millisecond, 2},
		{1500 * time.Millisecond, 2},
		{2 * time.Second, 2},
		{20 * time.Second, 20},
	}
	for _, tc := range cases {
		e := Entry{Expiry: t0.Add(tc.left)}
		if got := e.RemainingTTL(t0); got != tc.want {
			t.Errorf("RemainingTTL with %v left = %d, want %d", tc.left, got, tc.want)
		}
	}
}
