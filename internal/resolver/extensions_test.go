package resolver

import (
	"net/netip"
	"slices"
	"testing"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
)

func TestAdaptiveProfileLearnsScope(t *testing.T) {
	// The authority answers every query with scope /16; an adaptive
	// resolver's second miss conveys only 16 bits.
	rg := newRig(t, AdaptiveProfile(), authority.ScopeFixed(16))
	c1 := rg.client("London", 9)
	rg.ask(t, c1, "a.test.example", nil)
	if rg.logs.All()[0].QueryECS.SourcePrefix != 24 {
		t.Fatalf("first query conveyed /%d, want /24", rg.logs.All()[0].QueryECS.SourcePrefix)
	}
	// A different /16 forces a second upstream query.
	a := c1.As4()
	a[1] ^= 0x1
	c2 := addr4(a)
	rg.ask(t, c2, "a.test.example", nil)
	if rg.logs.Len() != 2 {
		t.Fatalf("authority saw %d queries", rg.logs.Len())
	}
	if got := rg.logs.All()[1].QueryECS.SourcePrefix; got != 16 {
		t.Fatalf("adapted query conveyed /%d, want learned /16", got)
	}
}

func TestAdaptiveProfileDoesNotWidenOnLongScope(t *testing.T) {
	// Scope == source: nothing to learn; prefix stays /24.
	rg := newRig(t, AdaptiveProfile(), authority.ScopeFixed(24))
	c := rg.client("London", 9)
	rg.ask(t, c, "a.test.example", nil)
	c2 := rg.client("Tokyo", 9)
	rg.ask(t, c2, "a.test.example", nil)
	for i, rec := range rg.logs.All() {
		if rec.QueryECS.SourcePrefix != 24 {
			t.Fatalf("query %d conveyed /%d", i, rec.QueryECS.SourcePrefix)
		}
	}
}

func TestNonAdaptiveProfileKeepsFullPrefix(t *testing.T) {
	rg := newRig(t, GoogleLikeProfile(), authority.ScopeFixed(16))
	c1 := rg.client("London", 9)
	rg.ask(t, c1, "a.test.example", nil)
	a := c1.As4()
	a[1] ^= 0x1
	rg.ask(t, addr4(a), "a.test.example", nil)
	if got := rg.logs.All()[1].QueryECS.SourcePrefix; got != 24 {
		t.Fatalf("non-adaptive resolver conveyed /%d", got)
	}
}

func TestMixedPrefixCycling(t *testing.T) {
	p := FullPrefixProfile()
	p.MixedV4Bits = []int{24, 25}
	rg := newRig(t, p, authority.ScopeFixed(24))
	c := rg.client("London", 9)
	rg.ask(t, c, "m1.test.example", nil)
	rg.ask(t, c, "m2.test.example", nil)
	seen := map[uint8]bool{}
	for _, rec := range rg.logs.All() {
		seen[rec.QueryECS.SourcePrefix] = true
	}
	if !seen[24] || !seen[25] {
		t.Fatalf("mixed prefixes not cycled: %v", seen)
	}
}

func addrOf(s string) netip.Addr { return netip.MustParseAddr(s) }

func addr4(a [4]byte) netip.Addr { return netip.AddrFrom4(a) }

// TestMappedClientMeetsV4PrefixPolicies: an IPv4 client of a dual-stack
// listener reaches the resolver as ::ffff:a.b.c.d. The policies that
// apply to IPv4 alone, the jammed last byte and the cycled lengths, must
// give it the subnets the plain address gets, not pass its full address
// upstream.
func TestMappedClientMeetsV4PrefixPolicies(t *testing.T) {
	v4 := addrOf("198.51.100.7")
	mapped := netip.AddrFrom16(v4.As16())
	mixed := FullPrefixProfile()
	mixed.MixedV4Bits = []int{24, 25}
	for _, tc := range []struct {
		name    string
		profile Profile
		want    []ecsopt.ClientSubnet
	}{
		{"jammed", JammedProfile(), []ecsopt.ClientSubnet{
			ecsopt.MustNew(addrOf("198.51.100.1"), 32), ecsopt.MustNew(addrOf("198.51.100.1"), 32)}},
		{"mixed", mixed, []ecsopt.ClientSubnet{
			ecsopt.MustNew(v4, 24), ecsopt.MustNew(v4, 25)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, from := range []netip.Addr{v4, mapped} {
				st := newProbeState(7)
				q := dnswire.NewQuery(1, "x.test.example.", dnswire.TypeA)
				var got []ecsopt.ClientSubnet
				for range tc.want {
					in := hopAt(addrOf("203.0.113.53"), q.Question().Name, from)
					in.client = identity(tc.profile, from, q)
					got = append(got, decide(tc.profile, &st, in).opt)
				}
				if !slices.Equal(got, tc.want) {
					t.Errorf("client %s sent %v upstream, want %v", from, got, tc.want)
				}
			}
		})
	}
}
