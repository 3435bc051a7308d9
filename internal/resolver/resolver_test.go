package resolver

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecscache"
	"ecsdns/internal/ecsopt"
	"ecsdns/internal/geo"
	"ecsdns/internal/netem"
	"ecsdns/internal/scanner"
)

// rig is a ready-made simulation: one authoritative server for
// test.example. and one resolver wired through an in-memory network.
type rig struct {
	world    *geo.Internet
	net      *netem.Network
	auth     *authority.Server
	authAddr netip.Addr
	res      *Resolver
	logs     *scanner.LogBuffer
}

func newRig(t *testing.T, profile Profile, scope authority.ScopeFunc) *rig {
	t.Helper()
	w := geo.Build(geo.Config{Seed: 3, NumASes: 120, BlocksPerAS: 1})
	n := netem.New(w)
	rg := &rig{world: w, net: n, logs: &scanner.LogBuffer{}}

	rg.authAddr = w.AddrInCity(geo.CityIndex("Frankfurt"), 3, 53)
	rg.auth = authority.NewServer(authority.Config{
		Addr:       rg.authAddr,
		ECSEnabled: true,
		Scope:      scope,
		Now:        n.Clock().Now,
	})
	z := authority.NewZone("test.example.", 20)
	z.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.80")})
	z.MustAdd(dnswire.RR{Name: "test.example.", Data: &dnswire.NSRData{Host: "ns1.test.example."}})
	rg.auth.AddZone(z)
	rg.auth.SetLog(rg.logs.Append)
	n.Register(rg.authAddr, rg.auth)

	dir := NewDirectory()
	dir.Add("test.example.", rg.authAddr)

	resAddr := w.AddrInCity(geo.CityIndex("London"), 5, 53)
	rg.res = New(Config{
		Addr:      resAddr,
		Transport: n,
		Now:       n.Clock().Now,
		Directory: dir,
		Profile:   profile,
		Seed:      1,
	})
	n.Register(resAddr, rg.res)
	return rg
}

// ask sends a client query (optionally carrying ECS) to the rig resolver.
func (rg *rig) ask(t *testing.T, client netip.Addr, name string, cs *ecsopt.ClientSubnet) *dnswire.Message {
	t.Helper()
	q := dnswire.NewQuery(77, dnswire.MustParseName(name), dnswire.TypeA)
	q.EDNS = dnswire.NewEDNS()
	if cs != nil {
		ecsopt.Attach(q, *cs)
	}
	resp, _, err := rg.net.Exchange(client, rg.res.Addr(), q)
	if err != nil {
		t.Fatalf("exchange: %v", err)
	}
	return resp
}

func (rg *rig) client(city string, salt int) netip.Addr {
	return rg.world.AddrInCity(geo.CityIndex(city), salt, 10)
}

// TestSeededDrawsReplay runs a ProbeRandom resolver twice from one seed:
// every upstream query, its ID and whether it carried ECS, must repeat.
// Go seeds its global source at random, so a draw from it makes the two
// runs differ.
func TestSeededDrawsReplay(t *testing.T) {
	type sent struct {
		id     uint16
		hasECS bool
	}
	run := func() []sent {
		p := GoogleLikeProfile()
		p.Probing = ProbeRandom
		rg := newRig(t, p, authority.ScopeFixed(24))
		var out []sent
		rg.net.WireTap = func(ev netem.Event) {
			if ev.To == rg.authAddr {
				_, hasECS, _ := ecsopt.FromMessage(ev.Query)
				out = append(out, sent{ev.Query.ID, hasECS})
			}
		}
		c := rg.client("London", 9)
		for i := 0; i < 40; i++ {
			rg.ask(t, c, fmt.Sprintf("r%d.test.example", i), nil)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != 40 || len(b) != 40 {
		t.Fatalf("upstream queries: %d and %d, want 40 each", len(a), len(b))
	}
	withECS := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("upstream query %d: %+v in one run, %+v in the other", i, a[i], b[i])
		}
		if a[i].hasECS {
			withECS++
		}
	}
	if withECS == 0 || withECS == 40 {
		t.Fatalf("%d of 40 names drew ECS: the coin flips decided nothing", withECS)
	}
}

// badECSAuthority answers as its authority does, with an ECS option not
// even a lenient decode can read.
type badECSAuthority struct{ *authority.Server }

func (a badECSAuthority) HandleDNS(from netip.Addr, q *dnswire.Message) *dnswire.Message {
	resp := a.Server.HandleDNS(from, q)
	resp.EDNS.SetOption(dnswire.Option{Code: dnswire.OptionCodeECS, Data: []byte{0, 1, 24}})
	return resp
}

// TestMalformedUpstreamECSNotEchoed: an authority whose ECS option not
// even a lenient decode can read is treated as one that sent none, so
// the client's answer carries no option.
func TestMalformedUpstreamECSNotEchoed(t *testing.T) {
	rg := newRig(t, GoogleLikeProfile(), authority.ScopeFixed(24))
	rg.net.Register(rg.authAddr, badECSAuthority{rg.auth})
	resp := rg.ask(t, rg.client("London", 9), "bad-ecs.test.example", nil)
	if resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 {
		t.Fatalf("resolve failed: %v", resp)
	}
	if cs, present, _ := ecsopt.FromMessage(resp); present {
		t.Fatalf("answer echoes %v for an upstream option that did not decode", cs)
	}
}

func TestResolveAndCacheBasic(t *testing.T) {
	rg := newRig(t, GoogleLikeProfile(), authority.ScopeFixed(24))
	c := rg.client("London", 9)
	resp := rg.ask(t, c, "a.test.example", nil)
	if resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 {
		t.Fatalf("resolve failed: %v", resp)
	}
	if rg.logs.Len() != 1 {
		t.Fatalf("authority saw %d queries", rg.logs.Len())
	}
	// Same client again within TTL: cache hit, no new upstream query.
	rg.ask(t, c, "a.test.example", nil)
	if rg.logs.Len() != 1 {
		t.Fatalf("cache miss on repeat: authority saw %d queries", rg.logs.Len())
	}
	_, up := rg.res.Counters()
	if up != 1 {
		t.Fatalf("upstream queries = %d", up)
	}
}

func TestECSAttachedWithDerivedPrefix(t *testing.T) {
	rg := newRig(t, GoogleLikeProfile(), authority.ScopeFixed(24))
	c := rg.client("London", 9)
	rg.ask(t, c, "b.test.example", nil)
	rec := rg.logs.All()[0]
	if !rec.QueryHasECS {
		t.Fatal("no ECS on upstream query")
	}
	if rec.QueryECS.SourcePrefix != 24 {
		t.Fatalf("source prefix = %d, want 24", rec.QueryECS.SourcePrefix)
	}
	if rec.QueryECS.Addr != ecsopt.MaskAddr(c, 24) {
		t.Fatalf("prefix %s not derived from client %s", rec.QueryECS.Addr, c)
	}
}

func TestScopeHonoredAcrossSubnets(t *testing.T) {
	// Authority returns scope 24: clients in different /24s must each
	// trigger an upstream query; a client in a cached /24 must not.
	rg := newRig(t, GoogleLikeProfile(), authority.ScopeFixed(24))
	c1 := rg.client("London", 9)
	c2 := rg.client("London", 10) // different subnet salt → different /24
	if ecsopt.MaskAddr(c1, 24) == ecsopt.MaskAddr(c2, 24) {
		t.Skip("salts landed in same /24")
	}
	rg.ask(t, c1, "c.test.example", nil)
	rg.ask(t, c2, "c.test.example", nil)
	if rg.logs.Len() != 2 {
		t.Fatalf("authority saw %d queries, want 2 (one per /24)", rg.logs.Len())
	}
	// A second host in c1's /24 hits cache.
	sib4 := c1.As4()
	sib4[3] ^= 0x7
	rg.ask(t, netip.AddrFrom4(sib4), "c.test.example", nil)
	if rg.logs.Len() != 2 {
		t.Fatal("sibling in cached /24 went upstream")
	}
}

func TestScopeZeroSharedGlobally(t *testing.T) {
	rg := newRig(t, GoogleLikeProfile(), authority.ScopeFixed(0))
	rg.ask(t, rg.client("London", 9), "d.test.example", nil)
	rg.ask(t, rg.client("Tokyo", 9), "d.test.example", nil)
	if rg.logs.Len() != 1 {
		t.Fatalf("scope-0 answer not shared: %d upstream queries", rg.logs.Len())
	}
}

func TestScopeSixteenSharedWithinSlash16(t *testing.T) {
	rg := newRig(t, GoogleLikeProfile(), authority.ScopeFixed(16))
	c1 := rg.client("London", 9)
	// Build a sibling in the same /16 but a different /24.
	a := c1.As4()
	a[2] ^= 0x1
	c2 := netip.AddrFrom4(a)
	rg.ask(t, c1, "e.test.example", nil)
	rg.ask(t, c2, "e.test.example", nil)
	if rg.logs.Len() != 1 {
		t.Fatalf("scope-16 answer not shared within /16: %d queries", rg.logs.Len())
	}
	// Outside the /16: miss.
	b := c1.As4()
	b[1] ^= 0x1
	rg.ask(t, netip.AddrFrom4(b), "e.test.example", nil)
	if rg.logs.Len() != 2 {
		t.Fatalf("outside /16 should miss: %d queries", rg.logs.Len())
	}
}

func TestIgnoreScopeProfileSharesEverything(t *testing.T) {
	rg := newRig(t, IgnoreScopeProfile(), authority.ScopeFixed(24))
	rg.ask(t, rg.client("London", 9), "f.test.example", nil)
	rg.ask(t, rg.client("Tokyo", 9), "f.test.example", nil)
	if rg.logs.Len() != 1 {
		t.Fatalf("ignore-scope resolver queried upstream %d times", rg.logs.Len())
	}
}

func TestJammedLastByte(t *testing.T) {
	rg := newRig(t, JammedProfile(), authority.ScopeFixed(24))
	c := rg.client("Beijing", 9)
	rg.ask(t, c, "g.test.example", nil)
	rec := rg.logs.All()[0]
	if rec.QueryECS.SourcePrefix != 32 {
		t.Fatalf("source prefix = %d, want 32", rec.QueryECS.SourcePrefix)
	}
	a := rec.QueryECS.Addr.As4()
	if a[3] != 0x01 {
		t.Fatalf("last byte = %#x, want jammed 0x01", a[3])
	}
	if ecsopt.MaskAddr(rec.QueryECS.Addr, 24) != ecsopt.MaskAddr(c, 24) {
		t.Fatal("jammed prefix lost the client /24")
	}
}

func TestPrivatePrefixBug(t *testing.T) {
	rg := newRig(t, PrivatePrefixProfile(), authority.ScopeFixed(0))
	c := rg.client("Paris", 9)
	rg.ask(t, c, "h.test.example", nil)
	rec := rg.logs.All()[0]
	if rec.QueryECS.Addr != netip.MustParseAddr("10.0.0.0") || rec.QueryECS.SourcePrefix != 8 {
		t.Fatalf("expected 10.0.0.0/8, got %v", rec.QueryECS)
	}
	// NoCacheScopeZero: the scope-0 answer is not cached, so a repeat
	// goes upstream again.
	rg.ask(t, c, "h.test.example", nil)
	if rg.logs.Len() != 2 {
		t.Fatalf("scope-0 answer was cached: %d queries", rg.logs.Len())
	}
}

// TestAcceptClientECSTruncation: a compliant resolver truncates an
// accepted client prefix to its family's ceiling, /24 for IPv4 and its
// IPv6 source policy (/56) for IPv6, and forwards a shorter one as is.
func TestAcceptClientECSTruncation(t *testing.T) {
	for _, tc := range []struct {
		addr     string
		bits     int
		wantAddr string
		wantBits uint8
	}{
		{"198.51.100.209", 28, "198.51.100.0", 24},
		{"2001:db8:42:17ab::", 64, "2001:db8:42:1700::", 56},
		{"2001:db8:42::", 48, "2001:db8:42::", 48},
	} {
		rg := newRig(t, CompliantProfile(), authority.ScopeFixed(24))
		cs := ecsopt.MustNew(netip.MustParseAddr(tc.addr), tc.bits)
		resp := rg.ask(t, rg.client("London", 9), "i.test.example", &cs)
		rec := rg.logs.All()[0]
		if rec.QueryECS.SourcePrefix != tc.wantBits || rec.QueryECS.Addr != netip.MustParseAddr(tc.wantAddr) {
			t.Errorf("client %s/%d: forwarded %s/%d, want %s/%d", tc.addr, tc.bits,
				rec.QueryECS.Addr, rec.QueryECS.SourcePrefix, tc.wantAddr, tc.wantBits)
		}
		if echo, ok, _ := ecsopt.FromMessage(resp); !ok || echo.SourcePrefix != tc.wantBits {
			t.Errorf("client %s/%d: echoed %v (present %v), want source /%d", tc.addr, tc.bits, echo, ok, tc.wantBits)
		}
	}
}

// TestAcceptClientECSOptOut: a client option with source 0 opts out of
// ECS (RFC 7871 §7.1.2), in either family or in family 0. A profile that
// accepts client ECS forwards source 0, no address bits, instead of the
// sender's subnet, and echoes the client's /0.
func TestAcceptClientECSOptOut(t *testing.T) {
	for _, cs := range []ecsopt.ClientSubnet{
		ecsopt.MustNew(netip.MustParseAddr("0.0.0.0"), 0),
		ecsopt.MustNew(netip.MustParseAddr("::"), 0),
		ecsopt.Zero(),
	} {
		rg := newRig(t, CompliantProfile(), authority.ScopeFixed(24))
		resp := rg.ask(t, rg.client("London", 9), "o.test.example", &cs)
		if rec := rg.logs.All()[0]; !rec.QueryHasECS || rec.QueryECS != cs {
			t.Errorf("client %v: forwarded %v (present %v), want %v", cs, rec.QueryECS, rec.QueryHasECS, cs)
		}
		if echo, ok, err := ecsopt.FromMessage(resp); !ok || err != nil || echo != cs {
			t.Errorf("client %v: echoed %v (present %v, %v), want %v", cs, echo, ok, err, cs)
		}
	}
}

func TestLongPrefixProfileForwardsLongPrefixes(t *testing.T) {
	rg := newRig(t, LongPrefixProfile(), authority.ScopeEcho())
	cs := ecsopt.MustNew(netip.MustParseAddr("198.51.100.209"), 28)
	rg.ask(t, rg.client("London", 9), "j.test.example", &cs)
	rec := rg.logs.All()[0]
	if rec.QueryECS.SourcePrefix != 28 {
		t.Fatalf("forwarded prefix = %d, want 28 (long-prefix acceptor)", rec.QueryECS.SourcePrefix)
	}
}

func TestCap22Profile(t *testing.T) {
	rg := newRig(t, Cap22Profile(), authority.ScopeEcho())
	cs := ecsopt.MustNew(netip.MustParseAddr("198.51.100.209"), 24)
	rg.ask(t, rg.client("London", 9), "k.test.example", &cs)
	rec := rg.logs.All()[0]
	if rec.QueryECS.SourcePrefix != 22 {
		t.Fatalf("conveyed prefix = %d, want 22", rec.QueryECS.SourcePrefix)
	}
	// Cache serves the entire /22 even though the authority echoed /22.
	cs2 := ecsopt.MustNew(netip.MustParseAddr("198.51.103.7"), 24) // same /22? 100.209 is /22 198.51.100.0; 103.7 is /22 198.51.100.0? 103 = 0b01100111 → /22 of 198.51.100.x spans 100-103.
	rg.ask(t, rg.client("London", 9), "k.test.example", &cs2)
	if rg.logs.Len() != 1 {
		t.Fatalf("client in same /22 missed cache: %d queries", rg.logs.Len())
	}
}

// TestCap22ProfileCapsIPv4Only: the /22 ceiling the paper saw is an
// IPv4 one. An IPv6 answer at scope 56 is filed at /56, so a client in
// the next /56, inside the same /22 of IPv6 space, misses.
func TestCap22ProfileCapsIPv4Only(t *testing.T) {
	rg := newRig(t, Cap22Profile(), authority.ScopeEcho())
	for i, p := range []string{"2001:db8:42:1700::/56", "2001:db8:42:1800::/56"} {
		pfx := netip.MustParsePrefix(p)
		cs := ecsopt.MustNew(pfx.Addr(), pfx.Bits())
		rg.ask(t, rg.client("London", 9), "k6.test.example", &cs)
		if rec := rg.logs.All()[0]; rec.QueryECS.SourcePrefix != 56 {
			t.Fatalf("conveyed %v, want the client's /56", rec.QueryECS)
		}
		if rg.logs.Len() != i+1 {
			t.Fatalf("client in %s: the authority saw %d queries, want %d", p, rg.logs.Len(), i+1)
		}
	}
}

// TestOptOutAnswerCached: the answer to a family-0 opt-out (RFC 7871
// §7.1.2, source 0 and no address) is good for every client, as a
// scope-0 answer is. The cache keeps it, so the same query asked again
// is a hit.
func TestOptOutAnswerCached(t *testing.T) {
	rg := newRig(t, CompliantProfile(), authority.ScopeFixed(24))
	cs := ecsopt.Zero()
	for range 2 {
		rg.ask(t, rg.client("London", 9), "optout.test.example", &cs)
	}
	if n := rg.logs.Len(); n != 1 {
		t.Fatalf("two opt-out queries reached the authority %d times, want once", n)
	}
	if st := rg.res.Cache().Stats(); st.Rejected != 0 {
		t.Fatalf("cache stats %+v: the opt-out's answer was rejected", st)
	}
}

func TestGoogleLikeOverridesIncomingECS(t *testing.T) {
	rg := newRig(t, GoogleLikeProfile(), authority.ScopeFixed(24))
	c := rg.client("London", 9)
	cs := ecsopt.MustNew(netip.MustParseAddr("198.51.100.0"), 24)
	rg.ask(t, c, "l.test.example", &cs)
	rec := rg.logs.All()[0]
	if rec.QueryECS.Addr == netip.MustParseAddr("198.51.100.0") {
		t.Fatal("incoming ECS not overridden with sender prefix")
	}
	if rec.QueryECS.Addr != ecsopt.MaskAddr(c, 24) {
		t.Fatalf("prefix %s not sender-derived", rec.QueryECS.Addr)
	}
}

func TestProbeIntervalWithLoopback(t *testing.T) {
	p := LoopbackProberProfile()
	p.ProbeNames = []dnswire.Name{"probe.test.example."}
	rg := newRig(t, p, authority.ScopeFixed(24))
	c := rg.client("London", 9)

	// First query for the probe string: ECS probe with loopback.
	rg.ask(t, c, "probe.test.example", nil)
	if !rg.logs.All()[0].QueryHasECS || rg.logs.All()[0].QueryECS.Addr != netip.MustParseAddr("127.0.0.1") {
		t.Fatalf("first probe: %+v", rg.logs.All()[0])
	}
	// Another name: no ECS.
	rg.ask(t, c, "other.test.example", nil)
	if rg.logs.All()[1].QueryHasECS {
		t.Fatal("non-probe name carried ECS")
	}
	// Probe string again within the interval: the cached entry answers;
	// force a different /24 so the scope-24 entry misses and the
	// resolver goes upstream — still no ECS inside the interval.
	c2 := rg.client("Tokyo", 9)
	rg.ask(t, c2, "probe.test.example", nil)
	if rg.logs.Len() != 3 || rg.logs.All()[2].QueryHasECS {
		t.Fatalf("within interval: %+v", rg.logs.All()[rg.logs.Len()-1])
	}
	// Advance past the interval: next probe fires.
	rg.net.Clock().Advance(31 * time.Minute)
	rg.ask(t, c, "probe.test.example", nil)
	last := rg.logs.All()[rg.logs.Len()-1]
	if !last.QueryHasECS || last.QueryECS.Addr != netip.MustParseAddr("127.0.0.1") {
		t.Fatalf("interval probe did not fire: %+v", last)
	}
}

func TestProbeHostnamesBypassesCache(t *testing.T) {
	p := Profile{
		Probing:      ProbeHostnames,
		ProbeNames:   []dnswire.Name{"pinned.test.example."},
		V4SourceBits: 24,
		CacheMode:    ecscache.HonorScope,
	}
	rg := newRig(t, p, authority.ScopeFixed(24))
	c := rg.client("London", 9)
	rg.ask(t, c, "pinned.test.example", nil)
	rg.ask(t, c, "pinned.test.example", nil) // within TTL!
	if rg.logs.Len() != 2 {
		t.Fatalf("probe hostname served from cache: %d queries", rg.logs.Len())
	}
	for _, rec := range rg.logs.All() {
		if !rec.QueryHasECS {
			t.Fatal("probe hostname missing ECS")
		}
	}
	// Non-probe names use the cache and carry no ECS.
	rg.ask(t, c, "normal.test.example", nil)
	rg.ask(t, c, "normal.test.example", nil)
	if rg.logs.Len() != 3 {
		t.Fatalf("normal name not cached: %d queries", rg.logs.Len())
	}
	if rg.logs.All()[2].QueryHasECS {
		t.Fatal("normal name carried ECS")
	}
}

func TestProbeOnMissSkipsRecentNames(t *testing.T) {
	p := Profile{
		Probing:      ProbeOnMiss,
		V4SourceBits: 24,
		CacheMode:    ecscache.HonorScope,
	}
	rg := newRig(t, p, authority.ScopeFixed(24))
	c := rg.client("London", 9)
	rg.ask(t, c, "n.test.example", nil)
	if !rg.logs.All()[0].QueryHasECS {
		t.Fatal("first (miss) query must carry ECS")
	}
	// Within a minute, from a different /24 (cache miss but recent):
	c2 := rg.client("Tokyo", 9)
	rg.ask(t, c2, "n.test.example", nil)
	if rg.logs.Len() != 2 {
		t.Fatalf("expected second upstream query, got %d", rg.logs.Len())
	}
	if rg.logs.All()[1].QueryHasECS {
		t.Fatal("query within one-minute window must not carry ECS")
	}
}

func TestNoECSToRootByDefault(t *testing.T) {
	rg := newRig(t, GoogleLikeProfile(), authority.ScopeFixed(24))
	// Wire a root zone onto the same authority and register it in the
	// directory.
	rootZone := authority.NewZone(".", 518400)
	rootZone.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.1")})
	rg.auth.AddZone(rootZone)
	dir := NewDirectory()
	dir.Add(".", rg.authAddr)
	rg.res.cfg.Directory = dir

	rg.ask(t, rg.client("London", 9), "something.arpa", nil)
	if rg.logs.All()[0].QueryHasECS {
		t.Fatal("compliant resolver sent ECS to the root")
	}

	// The violating profile does send it.
	p := GoogleLikeProfile()
	p.SendECSToRoot = true
	bad := New(Config{
		Addr: rg.world.AddrInCity(geo.CityIndex("Paris"), 6, 53), Transport: rg.net,
		Now: rg.net.Clock().Now, Directory: dir, Profile: p, Seed: 2,
	})
	rg.net.Register(bad.Addr(), bad)
	q := dnswire.NewQuery(5, "other.arpa.", dnswire.TypeA)
	if _, _, err := rg.net.Exchange(rg.client("Paris", 4), bad.Addr(), q); err != nil {
		t.Fatal(err)
	}
	last := rg.logs.All()[rg.logs.Len()-1]
	if !last.QueryHasECS {
		t.Fatal("SendECSToRoot profile did not send ECS to root")
	}
}

func TestClientSeesScopeEcho(t *testing.T) {
	rg := newRig(t, CompliantProfile(), authority.ScopeFixed(16))
	cs := ecsopt.MustNew(netip.MustParseAddr("198.51.100.7"), 24)
	resp := rg.ask(t, rg.client("London", 9), "o.test.example", &cs)
	got, present, err := ecsopt.FromMessage(resp)
	if err != nil || !present {
		t.Fatalf("client response ECS missing: %v %v", present, err)
	}
	if got.ScopePrefix != 16 {
		t.Fatalf("echoed scope = %d, want 16", got.ScopePrefix)
	}
}

func TestNonECSProfileSendsNothing(t *testing.T) {
	rg := newRig(t, NonECSProfile(), authority.ScopeFixed(24))
	rg.ask(t, rg.client("London", 9), "p.test.example", nil)
	if rg.logs.All()[0].QueryHasECS {
		t.Fatal("non-ECS profile sent ECS")
	}
}

func TestServfailWithoutDirectoryEntry(t *testing.T) {
	rg := newRig(t, GoogleLikeProfile(), authority.ScopeFixed(24))
	resp := rg.ask(t, rg.client("London", 9), "nowhere.invalid", nil)
	if resp.RCode != dnswire.RCodeServFail {
		t.Fatalf("RCode = %v, want SERVFAIL", resp.RCode)
	}
}

func TestCachedAnswerTTLDecays(t *testing.T) {
	rg := newRig(t, GoogleLikeProfile(), authority.ScopeFixed(24))
	c := rg.client("London", 9)
	rg.ask(t, c, "q.test.example", nil)
	rg.net.Clock().Advance(10 * time.Second)
	resp := rg.ask(t, c, "q.test.example", nil)
	if len(resp.Answers) == 0 {
		t.Fatal("no cached answer")
	}
	if ttl := resp.Answers[0].TTL; ttl > 10 {
		t.Fatalf("cached TTL = %d, want ≤ 10 after 10 s", ttl)
	}
}

func TestForwarderRelaysAndRestoresID(t *testing.T) {
	rg := newRig(t, GoogleLikeProfile(), authority.ScopeFixed(24))
	fwdAddr := rg.world.AddrInCity(geo.CityIndex("Dublin"), 7, 99)
	fwd := &Forwarder{Addr: fwdAddr, Upstream: rg.res.Addr(), Transport: rg.net, Open: true}
	rg.net.Register(fwdAddr, fwd)

	q := dnswire.NewQuery(4242, "r.test.example.", dnswire.TypeA)
	resp, _, err := rg.net.Exchange(rg.client("Dublin", 8), fwdAddr, q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 4242 || len(resp.Answers) != 1 {
		t.Fatalf("forwarded response wrong: %v", resp)
	}
	// The resolver derived ECS from the forwarder's address, not the
	// end client's.
	rec := rg.logs.All()[0]
	if rec.QueryECS.Addr != ecsopt.MaskAddr(fwdAddr, 24) {
		t.Fatalf("ECS prefix %s, want forwarder /24", rec.QueryECS.Addr)
	}
}

func TestClosedForwarderDropsOutsiders(t *testing.T) {
	rg := newRig(t, GoogleLikeProfile(), authority.ScopeFixed(24))
	fwdAddr := rg.world.AddrInCity(geo.CityIndex("Dublin"), 7, 99)
	fwd := &Forwarder{Addr: fwdAddr, Upstream: rg.res.Addr(), Transport: rg.net, Open: false}
	rg.net.Register(fwdAddr, fwd)
	outsider := rg.client("Tokyo", 3)
	q := dnswire.NewQuery(1, "s.test.example.", dnswire.TypeA)
	if _, _, err := rg.net.Exchange(outsider, fwdAddr, q); err == nil {
		t.Fatal("closed forwarder served an outsider")
	}
	// A neighbor in the same /24 is served.
	sib := fwdAddr.As4()
	sib[3] ^= 0x3
	if _, _, err := rg.net.Exchange(netip.AddrFrom4(sib), fwdAddr, q); err != nil {
		t.Fatalf("closed forwarder refused a neighbor: %v", err)
	}
}

func TestHiddenResolverChainLeaksItsPrefix(t *testing.T) {
	// forwarder → hidden → egress: the egress derives ECS from the
	// hidden resolver's address (§8.2's core mechanism).
	rg := newRig(t, GoogleLikeProfile(), authority.ScopeFixed(24))
	hiddenAddr := rg.world.AddrInCity(geo.CityIndex("Rome"), 8, 77)
	hidden := &Forwarder{Addr: hiddenAddr, Upstream: rg.res.Addr(), Transport: rg.net, Open: true}
	rg.net.Register(hiddenAddr, hidden)
	fwdAddr := rg.world.AddrInCity(geo.CityIndex("Santiago"), 9, 66)
	fwd := &Forwarder{Addr: fwdAddr, Upstream: hiddenAddr, Transport: rg.net, Open: true}
	rg.net.Register(fwdAddr, fwd)

	q := dnswire.NewQuery(8, "u.test.example.", dnswire.TypeA)
	if _, _, err := rg.net.Exchange(rg.client("Santiago", 2), fwdAddr, q); err != nil {
		t.Fatal(err)
	}
	rec := rg.logs.All()[0]
	if rec.QueryECS.Addr != ecsopt.MaskAddr(hiddenAddr, 24) {
		t.Fatalf("ECS %s should be the hidden resolver's /24 (%s)",
			rec.QueryECS.Addr, ecsopt.MaskAddr(hiddenAddr, 24))
	}
}

func TestDirectoryLongestMatch(t *testing.T) {
	d := NewDirectory()
	a1 := netip.MustParseAddr("192.0.2.1")
	a2 := netip.MustParseAddr("192.0.2.2")
	root := netip.MustParseAddr("192.0.2.3")
	d.Add("example.com.", a1)
	d.Add("cdn.example.com.", a2)
	d.Add(".", root)
	addr, zone, ok := d.Lookup("x.cdn.example.com.")
	if !ok || addr != a2 || zone != "cdn.example.com." {
		t.Fatalf("lookup = %v %v %v", addr, zone, ok)
	}
	addr, zone, ok = d.Lookup("www.example.com.")
	if !ok || addr != a1 || zone != "example.com." {
		t.Fatalf("lookup = %v %v %v", addr, zone, ok)
	}
	addr, zone, ok = d.Lookup("other.net.")
	if !ok || addr != root || zone != dnswire.Root {
		t.Fatalf("root fallback = %v %v %v", addr, zone, ok)
	}
}

func TestProbeStrategyStrings(t *testing.T) {
	for s, want := range map[ProbeStrategy]string{
		ProbeNever: "never", ProbeAlways: "always", ProbeHostnames: "hostnames",
		ProbeInterval: "interval", ProbeOnMiss: "on-miss", ProbeRandom: "random",
		ProbeStrategy(99): "unknown",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}
