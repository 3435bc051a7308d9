package authority

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"ecsdns/internal/cdn"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
	"ecsdns/internal/geo"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func testZone() *Zone {
	z := NewZone("example.org.", 60)
	z.MustAdd(dnswire.RR{Name: "www.example.org.", Data: &dnswire.ARData{Addr: addr("192.0.2.10")}})
	z.MustAdd(dnswire.RR{Name: "alias.example.org.", Data: &dnswire.CNAMERData{Target: "www.example.org."}})
	z.MustAdd(dnswire.RR{Name: "ext.example.org.", Data: &dnswire.CNAMERData{Target: "cdn.example.net."}})
	z.MustAdd(dnswire.RR{Name: "txtonly.example.org.", Data: &dnswire.TXTRData{Strings: []string{"x"}}})
	z.MustAdd(dnswire.RR{Name: "example.org.", Data: &dnswire.NSRData{Host: "ns1.example.org."}})
	return z
}

func query(name string, t dnswire.Type) *dnswire.Message {
	return dnswire.NewQuery(1, dnswire.MustParseName(name), t)
}

func ecsQuery(name string, t dnswire.Type, prefix string, bits int) *dnswire.Message {
	q := query(name, t)
	ecsopt.Attach(q, ecsopt.MustNew(addr(prefix), bits))
	return q
}

func TestZoneExactMatch(t *testing.T) {
	s := NewServer(Config{})
	s.AddZone(testZone())
	resp := s.HandleDNS(addr("198.51.100.1"), query("www.example.org", dnswire.TypeA))
	if resp.RCode != dnswire.RCodeNoError || !resp.Authoritative {
		t.Fatalf("header: %+v", resp.Header)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Data.(*dnswire.ARData).Addr != addr("192.0.2.10") {
		t.Fatalf("answers: %v", resp.Answers)
	}
}

func TestZoneCNAMEChaseInZone(t *testing.T) {
	s := NewServer(Config{})
	s.AddZone(testZone())
	resp := s.HandleDNS(addr("198.51.100.1"), query("alias.example.org", dnswire.TypeA))
	if len(resp.Answers) != 2 {
		t.Fatalf("answers: %v", resp.Answers)
	}
	if resp.Answers[0].Type() != dnswire.TypeCNAME || resp.Answers[1].Type() != dnswire.TypeA {
		t.Fatalf("chain order wrong: %v", resp.Answers)
	}
}

func TestZoneCNAMELeavingZone(t *testing.T) {
	s := NewServer(Config{})
	s.AddZone(testZone())
	resp := s.HandleDNS(addr("198.51.100.1"), query("ext.example.org", dnswire.TypeA))
	if len(resp.Answers) != 1 || resp.Answers[0].Type() != dnswire.TypeCNAME {
		t.Fatalf("answers: %v", resp.Answers)
	}
}

func TestZoneNoDataAndNXDomain(t *testing.T) {
	s := NewServer(Config{})
	s.AddZone(testZone())
	resp := s.HandleDNS(addr("198.51.100.1"), query("txtonly.example.org", dnswire.TypeA))
	if resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 0 || len(resp.Authorities) != 1 {
		t.Fatalf("NODATA wrong: %v", resp)
	}
	if resp.Authorities[0].Type() != dnswire.TypeSOA {
		t.Fatal("NODATA must carry SOA")
	}
	resp = s.HandleDNS(addr("198.51.100.1"), query("missing.example.org", dnswire.TypeA))
	if resp.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("NXDOMAIN wrong: %v", resp.RCode)
	}
}

func TestOutOfZoneRefused(t *testing.T) {
	s := NewServer(Config{})
	s.AddZone(testZone())
	resp := s.HandleDNS(addr("198.51.100.1"), query("www.other.net", dnswire.TypeA))
	if resp.RCode != dnswire.RCodeRefused {
		t.Fatalf("RCode = %v, want REFUSED", resp.RCode)
	}
}

func TestWildcardSynthesis(t *testing.T) {
	z := NewZone("scan.example.org.", 30)
	z.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: addr("192.0.2.53")})
	s := NewServer(Config{})
	s.AddZone(z)
	resp := s.HandleDNS(addr("198.51.100.1"), query("probe-1-2-3-4.scan.example.org", dnswire.TypeA))
	if len(resp.Answers) != 1 || resp.Answers[0].Data.(*dnswire.ARData).Addr != addr("192.0.2.53") {
		t.Fatalf("wildcard answer: %v", resp.Answers)
	}
	if resp.Answers[0].TTL != 30 {
		t.Fatalf("wildcard TTL = %d", resp.Answers[0].TTL)
	}
}

// TestZoneWildcardPrecedence pins what a zone with a wildcard A record
// and explicit data answers: explicit records win, an owner with other
// records has no A (NODATA, not the wildcard), an in-zone CNAME to an
// owner with no records is followed by the synthesized A, and a name with
// no records gets the wildcard.
func TestZoneWildcardPrecedence(t *testing.T) {
	z := NewZone("scan.example.org.", 30)
	z.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: addr("192.0.2.53")})
	z.MustAdd(dnswire.RR{Name: "www.scan.example.org.", Data: &dnswire.ARData{Addr: addr("192.0.2.80")}})
	z.MustAdd(dnswire.RR{Name: "txt.scan.example.org.", Data: &dnswire.TXTRData{Strings: []string{"x"}}})
	z.MustAdd(dnswire.RR{Name: "alias.scan.example.org.", Data: &dnswire.CNAMERData{Target: "empty.scan.example.org."}})
	s := NewServer(Config{})
	s.AddZone(z)
	a := func(owner, ip string) string { return owner + " A " + ip }
	for _, tc := range []struct {
		name string
		want []string // answers as owner, type and address or target
	}{
		{"www.scan.example.org.", []string{a("www.scan.example.org.", "192.0.2.80")}},
		{"txt.scan.example.org.", nil},
		{"alias.scan.example.org.", []string{"alias.scan.example.org. CNAME empty.scan.example.org.", a("empty.scan.example.org.", "192.0.2.53")}},
		{"missing.scan.example.org.", []string{a("missing.scan.example.org.", "192.0.2.53")}},
	} {
		resp := s.HandleDNS(addr("198.51.100.1"), query(tc.name, dnswire.TypeA))
		var got []string
		for _, rr := range resp.Answers {
			switch d := rr.Data.(type) {
			case *dnswire.ARData:
				got = append(got, a(string(rr.Name), d.Addr.String()))
			case *dnswire.CNAMERData:
				got = append(got, string(rr.Name)+" CNAME "+string(d.Target))
			default:
				got = append(got, rr.String())
			}
		}
		if resp.RCode != dnswire.RCodeNoError || strings.Join(got, "; ") != strings.Join(tc.want, "; ") {
			t.Errorf("%s A: %s %q, want NOERROR %q", tc.name, resp.RCode, got, tc.want)
		}
		if len(tc.want) == 0 && (len(resp.Authorities) != 1 || resp.Authorities[0].Type() != dnswire.TypeSOA) {
			t.Errorf("%s A: NODATA without the zone's SOA: %v", tc.name, resp.Authorities)
		}
	}
}

func TestECSEchoWithScope(t *testing.T) {
	s := NewServer(Config{ECSEnabled: true, Scope: ScopeSourceMinus(4)})
	s.AddZone(testZone())
	resp := s.HandleDNS(addr("198.51.100.1"), ecsQuery("www.example.org", dnswire.TypeA, "203.0.113.0", 24))
	cs, present, err := ecsopt.FromMessage(resp)
	if err != nil || !present {
		t.Fatalf("response ECS missing: %v %v", present, err)
	}
	if cs.ScopePrefix != 20 {
		t.Fatalf("scope = %d, want source-4 = 20", cs.ScopePrefix)
	}
	if cs.SourcePrefix != 24 || cs.Addr != addr("203.0.113.0") {
		t.Fatalf("echoed option wrong: %v", cs)
	}
}

func TestECSDisabledServerIgnoresOption(t *testing.T) {
	s := NewServer(Config{ECSEnabled: false})
	s.AddZone(testZone())
	resp := s.HandleDNS(addr("198.51.100.1"), ecsQuery("www.example.org", dnswire.TypeA, "203.0.113.0", 24))
	if _, present, _ := ecsopt.FromMessage(resp); present {
		t.Fatal("disabled server leaked an ECS option")
	}
	if len(resp.Answers) != 1 {
		t.Fatal("disabled server must still answer")
	}
}

func TestWhitelisting(t *testing.T) {
	allowed := addr("198.51.100.53")
	s := NewServer(Config{
		ECSEnabled: true,
		Whitelist:  func(a netip.Addr) bool { return a == allowed },
		Scope:      ScopeFixed(24),
	})
	s.AddZone(testZone())
	q := ecsQuery("www.example.org", dnswire.TypeA, "203.0.113.0", 24)
	resp := s.HandleDNS(allowed, q)
	if _, present, _ := ecsopt.FromMessage(resp); !present {
		t.Fatal("whitelisted resolver must get ECS")
	}
	resp = s.HandleDNS(addr("198.51.100.99"), ecsQuery("www.example.org", dnswire.TypeA, "203.0.113.0", 24))
	if _, present, _ := ecsopt.FromMessage(resp); present {
		t.Fatal("non-whitelisted resolver must see no ECS support")
	}
	if len(resp.Answers) != 1 {
		t.Fatal("non-whitelisted resolver must still be answered")
	}
}

func TestNSQueriesGetScopeZero(t *testing.T) {
	s := NewServer(Config{ECSEnabled: true, Scope: ScopeFixed(24)})
	s.AddZone(testZone())
	q := ecsQuery("example.org", dnswire.TypeNS, "203.0.113.0", 24)
	resp := s.HandleDNS(addr("198.51.100.1"), q)
	cs, present, err := ecsopt.FromMessage(resp)
	if err != nil || !present {
		t.Fatalf("NS response ECS: %v %v", present, err)
	}
	if cs.ScopePrefix != 0 {
		t.Fatalf("NS scope = %d, want 0", cs.ScopePrefix)
	}
}

func TestScopeNeverExceedsSource(t *testing.T) {
	s := NewServer(Config{ECSEnabled: true, Scope: ScopeFixed(24)})
	s.AddZone(testZone())
	resp := s.HandleDNS(addr("198.51.100.1"), ecsQuery("www.example.org", dnswire.TypeA, "203.0.0.0", 16))
	cs, _, _ := ecsopt.FromMessage(resp)
	if cs.ScopePrefix > 16 {
		t.Fatalf("scope %d exceeds source 16", cs.ScopePrefix)
	}
}

func TestStrictServerRejectsMalformedECS(t *testing.T) {
	s := NewServer(Config{ECSEnabled: true, Strict: true})
	s.AddZone(testZone())
	q := query("www.example.org", dnswire.TypeA)
	q.EDNS = dnswire.NewEDNS()
	q.EDNS.SetOption(dnswire.Option{Code: dnswire.OptionCodeECS, Data: []byte{0, 1, 24}})
	resp := s.HandleDNS(addr("198.51.100.1"), q)
	if resp.RCode != dnswire.RCodeFormErr {
		t.Fatalf("RCode = %v, want FORMERR", resp.RCode)
	}
}

func TestLenientServerMasksMalformedECS(t *testing.T) {
	s := NewServer(Config{ECSEnabled: true})
	s.AddZone(testZone())
	q := query("www.example.org", dnswire.TypeA)
	// Trailing bits beyond /20.
	q.EDNS = dnswire.NewEDNS()
	q.EDNS.SetOption(dnswire.Option{Code: dnswire.OptionCodeECS, Data: []byte{0, 1, 20, 0, 192, 0, 0x2F}})
	resp := s.HandleDNS(addr("198.51.100.1"), q)
	if resp.RCode != dnswire.RCodeNoError {
		t.Fatalf("lenient server answered %v", resp.RCode)
	}
	// What not even a lenient decode can read is still FORMERR.
	q.EDNS.SetOption(dnswire.Option{Code: dnswire.OptionCodeECS, Data: []byte{0, 1, 24}})
	if resp := s.HandleDNS(addr("198.51.100.1"), q); resp.RCode != dnswire.RCodeFormErr {
		t.Fatalf("lenient server answered a 3-byte option %v, want FORMERR", resp.RCode)
	}
}

func TestBadEDNSVersion(t *testing.T) {
	s := NewServer(Config{})
	s.AddZone(testZone())
	q := query("www.example.org", dnswire.TypeA)
	q.EDNS = dnswire.NewEDNS()
	q.EDNS.Version = 1
	resp := s.HandleDNS(addr("198.51.100.1"), q)
	if resp.RCode != dnswire.RCodeBadVers {
		t.Fatalf("RCode = %v, want BADVERS", resp.RCode)
	}
}

func TestNotImpAndFormErr(t *testing.T) {
	s := NewServer(Config{})
	s.AddZone(testZone())
	q := query("www.example.org", dnswire.TypeA)
	q.OpCode = dnswire.OpUpdate
	if resp := s.HandleDNS(addr("1.2.3.4"), q); resp.RCode != dnswire.RCodeNotImp {
		t.Fatalf("update opcode: %v", resp.RCode)
	}
	q2 := &dnswire.Message{Header: dnswire.Header{ID: 5}}
	if resp := s.HandleDNS(addr("1.2.3.4"), q2); resp.RCode != dnswire.RCodeFormErr {
		t.Fatalf("zero questions: %v", resp.RCode)
	}
}

func TestQueryLogging(t *testing.T) {
	stamp := time.Date(2019, 10, 21, 9, 0, 0, 0, time.UTC)
	s := NewServer(Config{ECSEnabled: true, Scope: ScopeFixed(24), Now: func() time.Time { return stamp }})
	s.AddZone(testZone())
	var recs []LogRecord
	s.SetLog(func(r LogRecord) { recs = append(recs, r) })
	s.HandleDNS(addr("198.51.100.1"), ecsQuery("www.example.org", dnswire.TypeA, "203.0.113.0", 24))
	s.HandleDNS(addr("198.51.100.2"), query("www.example.org", dnswire.TypeA))
	if len(recs) != 2 {
		t.Fatalf("logged %d records", len(recs))
	}
	if !recs[0].QueryHasECS || !recs[0].RespHasECS || recs[0].RespScope != 24 {
		t.Fatalf("ECS record wrong: %+v", recs[0])
	}
	if recs[1].QueryHasECS || recs[1].RespHasECS {
		t.Fatalf("plain record wrong: %+v", recs[1])
	}
	if recs[0].Resolver != addr("198.51.100.1") {
		t.Fatalf("resolver not recorded: %v", recs[0].Resolver)
	}
	for i, r := range recs {
		if !r.Time.Equal(stamp) {
			t.Fatalf("record %d stamped %v, want the injected clock's %v", i, r.Time, stamp)
		}
	}
}

func TestCDNServerMapsViaECS(t *testing.T) {
	w := geo.Build(geo.Config{Seed: 2, NumASes: 120, BlocksPerAS: 1})
	policy := cdn.NewGoogleLike(w)
	s := NewCDNServer(Config{ECSEnabled: true}, "cdn.example.net.", policy, 20)

	resolver := w.AddrInCity(geo.CityIndex("Mountain View"), 0, 3)
	tokyoClient := w.AddrInCity(geo.CityIndex("Tokyo"), 0, 7)
	q := query("video.cdn.example.net", dnswire.TypeA)
	ecsopt.Attach(q, ecsopt.MustNew(tokyoClient, 24))
	resp := s.HandleDNS(resolver, q)
	if len(resp.Answers) == 0 {
		t.Fatal("no answers")
	}
	edge := resp.Answers[0].Data.(*dnswire.ARData).Addr
	loc, ok := w.Locate(edge)
	if !ok {
		t.Fatalf("edge %s unlocatable", edge)
	}
	tokyo := geo.LocationOfCity(geo.CityIndex("Tokyo"))
	if d := geo.DistanceKm(loc, tokyo); d > 1500 {
		t.Fatalf("edge %.0f km from Tokyo", d)
	}
	cs, present, err := ecsopt.FromMessage(resp)
	if err != nil || !present || cs.ScopePrefix == 0 {
		t.Fatalf("CDN response ECS: %v %v %v", cs, present, err)
	}
	if resp.Answers[0].TTL != 20 {
		t.Fatalf("CDN TTL = %d, want 20", resp.Answers[0].TTL)
	}
}

func TestCDNServerWithoutECSUsesResolver(t *testing.T) {
	w := geo.Build(geo.Config{Seed: 2, NumASes: 120, BlocksPerAS: 1})
	policy := cdn.NewGoogleLike(w)
	s := NewCDNServer(Config{ECSEnabled: true}, "cdn.example.net.", policy, 20)
	resolver := w.AddrInCity(geo.CityIndex("Paris"), 0, 3)
	resp := s.HandleDNS(resolver, query("video.cdn.example.net", dnswire.TypeA))
	edge := resp.Answers[0].Data.(*dnswire.ARData).Addr
	loc, _ := w.Locate(edge)
	paris := geo.LocationOfCity(geo.CityIndex("Paris"))
	if d := geo.DistanceKm(loc, paris); d > 1500 {
		t.Fatalf("edge %.0f km from Paris", d)
	}
	if _, present, _ := ecsopt.FromMessage(resp); present {
		t.Fatal("no query ECS but response has option")
	}
}
