package resolver

import (
	"fmt"
	"net/netip"
	"testing"

	"ecsdns/internal/authority"
	"ecsdns/internal/ecscache"
)

// flipBit returns a with address bit i (0 the most significant)
// inverted.
func flipBit(a netip.Addr, i int) netip.Addr {
	b := a.AsSlice()
	b[i/8] ^= 0x80 >> (i % 8)
	out, _ := netip.AddrFromSlice(b)
	return out
}

// TestProfilesCacheEveryClientFamily runs every canned profile against
// an IPv4, an IPv6 and an IPv4-mapped IPv6 client over the netem rig,
// with an authority that echoes the source prefix as the scope. The
// first query's upstream ECS must carry the source prefix the profile's
// policy gives the unmapped family. Then a second client inside the
// scope the cache stored the answer at must be a hit, sending nothing
// upstream, and one just outside it a miss (a hit under IgnoreScope).
// Each client asks in its own family's form, so a 4-in-6 client must
// find the IPv4 subnet the cache keeps for its unmapped address.
func TestProfilesCacheEveryClientFamily(t *testing.T) {
	v4 := netip.MustParseAddr("198.51.100.77")
	v6 := netip.MustParseAddr("2001:db8:42:17::9")
	mapped := netip.AddrFrom16(v4.As16())
	for _, tc := range []struct {
		name string
		p    Profile
		// v4 and v6 are the source prefixes sent upstream for a client of
		// each unmapped family, 0 for none; fixed marks a profile whose
		// option is an IPv4 subnet whatever the client.
		v4, v6 int
		fixed  bool
	}{
		{"compliant", CompliantProfile(), 24, 56, false},
		{"google-like", GoogleLikeProfile(), 24, 56, false},
		{"jammed", JammedProfile(), 32, 56, false},
		{"full-prefix", FullPrefixProfile(), 32, 64, false},
		{"25-bit", TwentyFiveBitProfile(), 25, 56, false},
		{"ignore-scope", IgnoreScopeProfile(), 24, 56, false},
		{"long-prefix", LongPrefixProfile(), 24, 56, false},
		{"cap22", Cap22Profile(), 22, 56, false},
		{"loopback-prober", LoopbackProberProfile(), 32, 32, true},
		{"private-prefix", PrivatePrefixProfile(), 8, 8, true},
		{"non-ecs", NonECSProfile(), 0, 0, false},
		{"adaptive", AdaptiveProfile(), 24, 56, false},
	} {
		for _, client := range []netip.Addr{v4, v6, mapped} {
			t.Run(fmt.Sprintf("%s/%s", tc.name, client), func(t *testing.T) {
				rg := newRig(t, tc.p, authority.ScopeEcho())
				const name = "fam.test.example"
				rg.ask(t, client, name, nil)
				if rg.logs.Len() != 1 {
					t.Fatalf("first query reached the authority %d times, want 1", rg.logs.Len())
				}
				rec := rg.logs.All()[0]
				wantBits, wantV4 := tc.v4, client.Unmap().Is4() || tc.fixed
				if !client.Unmap().Is4() {
					wantBits = tc.v6
				}
				gotBits := 0
				if rec.QueryHasECS {
					gotBits = int(rec.QueryECS.SourcePrefix)
				}
				if gotBits != wantBits || rec.QueryHasECS && rec.QueryECS.Addr.Is4() != wantV4 {
					t.Fatalf("upstream ECS %v (present %v), want a /%d of the IPv4 family: %v", rec.QueryECS, rec.QueryHasECS, wantBits, wantV4)
				}

				// The clients a second query comes from: without ECS any other
				// client; with it, one inside and one outside the stored
				// subnet, in its family, IPv4-mapped on the 4-in-6 rows.
				inside, outside, hasOutside := flipBit(client, client.BitLen()-1), client, false
				if rec.QueryHasECS {
					stored := rec.QueryECS.Addr
					scope := int(rec.QueryECS.SourcePrefix) // the authority echoes it
					if tc.p.CacheMode == ecscache.CapScope && stored.Is4() {
						scope = min(scope, int(tc.p.CacheCapBits)) // an IPv4 ceiling
					}
					inside = stored
					if scope < stored.BitLen() {
						inside = flipBit(stored, stored.BitLen()-1) // another host of the subnet
					}
					if scope > 0 {
						outside, hasOutside = flipBit(stored, scope-1), true
					}
					if client.Is4In6() {
						inside, outside = netip.AddrFrom16(inside.As16()), netip.AddrFrom16(outside.As16())
					}
				}

				rg.ask(t, inside, name, nil)
				if rg.logs.Len() != 1 {
					t.Fatalf("client %s, inside the stored subnet, missed: the authority saw %d queries", inside, rg.logs.Len())
				}
				if !hasOutside {
					return
				}
				rg.ask(t, outside, name, nil)
				wantQueries := 2
				if tc.p.CacheMode == ecscache.IgnoreScope {
					wantQueries = 1
				}
				if rg.logs.Len() != wantQueries {
					t.Fatalf("client %s, outside the stored subnet: the authority saw %d queries, want %d", outside, rg.logs.Len(), wantQueries)
				}
				if st := rg.res.Cache().Stats(); st.Check() != nil || st.Rejected != 0 {
					t.Fatalf("cache stats %+v", st)
				}
			})
		}
	}
}
