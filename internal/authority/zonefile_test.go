package authority

import (
	"net/netip"
	"strings"
	"testing"

	"ecsdns/internal/dnswire"
)

const sampleZone = `
; the experimental zone
$ORIGIN scan.example.org.
$TTL 300
@   IN SOA ns1 hostmaster (
        2019030100 ; serial
        7200       ; refresh
        900        ; retry
        1209600    ; expire
        60 )       ; minimum
@       IN NS  ns1
ns1     IN A   192.0.2.53
www 60  IN A   192.0.2.80
www     IN AAAA 2001:db8::80
alias   IN CNAME www
ext     IN CNAME cdn.example.net.
mail    IN MX 10 mx1
mx1     IN A   192.0.2.25
txt     IN TXT "hello world" "second string"
rev     IN PTR www.scan.example.org.
        IN A   192.0.2.81
`

func parseSample(t *testing.T) *Zone {
	t.Helper()
	z, err := ParseZoneFile(strings.NewReader(sampleZone), "")
	if err != nil {
		t.Fatal(err)
	}
	return z
}

func TestZoneFileOriginAndSOA(t *testing.T) {
	z := parseSample(t)
	if z.Origin != "scan.example.org." {
		t.Fatalf("origin = %s", z.Origin)
	}
	if z.SOA.Serial != 2019030100 || z.SOA.Minimum != 60 {
		t.Fatalf("SOA = %+v", z.SOA)
	}
	if z.SOA.MName != "ns1.scan.example.org." {
		t.Fatalf("SOA mname = %s", z.SOA.MName)
	}
}

func TestZoneFileRecords(t *testing.T) {
	z := parseSample(t)
	s := NewServer(Config{})
	s.AddZone(z)
	resolver := netip.MustParseAddr("198.51.100.1")

	resp := s.HandleDNS(resolver, query("www.scan.example.org", dnswire.TypeA))
	if len(resp.Answers) != 1 {
		t.Fatalf("www A answers: %v", resp.Answers)
	}
	if resp.Answers[0].TTL != 60 {
		t.Fatalf("www A TTL = %d, want per-record 60", resp.Answers[0].TTL)
	}
	if resp.Answers[0].Data.(*dnswire.ARData).Addr != netip.MustParseAddr("192.0.2.80") {
		t.Fatalf("www A = %v", resp.Answers[0].Data)
	}

	resp = s.HandleDNS(resolver, query("www.scan.example.org", dnswire.TypeAAAA))
	if len(resp.Answers) != 1 || resp.Answers[0].TTL != 300 {
		t.Fatalf("www AAAA (default TTL): %v", resp.Answers)
	}

	resp = s.HandleDNS(resolver, query("alias.scan.example.org", dnswire.TypeA))
	if len(resp.Answers) != 2 || resp.Answers[0].Type() != dnswire.TypeCNAME {
		t.Fatalf("alias chain: %v", resp.Answers)
	}

	resp = s.HandleDNS(resolver, query("ext.scan.example.org", dnswire.TypeA))
	if len(resp.Answers) != 1 ||
		resp.Answers[0].Data.(*dnswire.CNAMERData).Target != "cdn.example.net." {
		t.Fatalf("absolute CNAME target: %v", resp.Answers)
	}

	resp = s.HandleDNS(resolver, query("mail.scan.example.org", dnswire.TypeMX))
	mx := resp.Answers[0].Data.(*dnswire.MXRData)
	if mx.Preference != 10 || mx.Host != "mx1.scan.example.org." {
		t.Fatalf("MX = %+v", mx)
	}

	resp = s.HandleDNS(resolver, query("txt.scan.example.org", dnswire.TypeTXT))
	txt := resp.Answers[0].Data.(*dnswire.TXTRData)
	if len(txt.Strings) != 2 || txt.Strings[0] != "hello world" {
		t.Fatalf("TXT = %+v", txt)
	}

	// The blank-owner record inherits the previous owner (rev).
	resp = s.HandleDNS(resolver, query("rev.scan.example.org", dnswire.TypeA))
	if len(resp.Answers) != 1 || resp.Answers[0].Data.(*dnswire.ARData).Addr != netip.MustParseAddr("192.0.2.81") {
		t.Fatalf("inherited-owner A: %v", resp.Answers)
	}
}

func TestZoneFileDefaultOrigin(t *testing.T) {
	z, err := ParseZoneFile(strings.NewReader("www IN A 192.0.2.1\n"), "fallback.example.")
	if err != nil {
		t.Fatal(err)
	}
	if z.Origin != "fallback.example." {
		t.Fatalf("origin = %s", z.Origin)
	}
}

func TestZoneFileErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"no records", "; just a comment\n"},
		{"bad A", "$ORIGIN x.example.\nwww IN A not-an-ip\n"},
		{"v6 in A", "$ORIGIN x.example.\nwww IN A 2001:db8::1\n"},
		{"v4 in AAAA", "$ORIGIN x.example.\nwww IN AAAA 192.0.2.1\n"},
		{"unknown type", "$ORIGIN x.example.\nwww IN HINFO cpu os\n"},
		{"unclosed parens", "$ORIGIN x.example.\n@ IN SOA a b (1 2 3 4\n"},
		{"unterminated quote", "$ORIGIN x.example.\nt IN TXT \"oops\n"},
		{"no owner", "$ORIGIN x.example.\n  IN A 192.0.2.1\n"},
		{"bad ttl directive", "$TTL soon\n"},
		{"record outside origin", "$ORIGIN x.example.\nwww.other.test. IN A 192.0.2.1\n"},
		{"mx missing pref", "$ORIGIN x.example.\nm IN MX mx1\n"},
		{"bad soa count", "$ORIGIN x.example.\n@ IN SOA a b 1 2 3\n"},
	}
	for _, tc := range cases {
		if _, err := ParseZoneFile(strings.NewReader(tc.in), ""); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestZoneFileCommentInsideQuotes(t *testing.T) {
	in := "$ORIGIN q.example.\nt IN TXT \"semi;colon\" ; trailing comment\n"
	z, err := ParseZoneFile(strings.NewReader(in), "")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{})
	s.AddZone(z)
	resp := s.HandleDNS(netip.MustParseAddr("198.51.100.1"), query("t.q.example", dnswire.TypeTXT))
	txt := resp.Answers[0].Data.(*dnswire.TXTRData)
	if len(txt.Strings) != 1 || txt.Strings[0] != "semi;colon" {
		t.Fatalf("TXT = %+v", txt)
	}
}

func TestZoneFileRoundTripThroughWire(t *testing.T) {
	// Everything the parser produces must survive pack/unpack.
	z := parseSample(t)
	s := NewServer(Config{})
	s.AddZone(z)
	for _, name := range []string{"www.scan.example.org", "mail.scan.example.org", "txt.scan.example.org"} {
		for _, qt := range []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeMX, dnswire.TypeTXT} {
			resp := s.HandleDNS(netip.MustParseAddr("198.51.100.1"), query(name, qt))
			data, err := resp.Pack()
			if err != nil {
				t.Fatalf("%s/%s pack: %v", name, qt, err)
			}
			if _, err := dnswire.Unpack(data); err != nil {
				t.Fatalf("%s/%s unpack: %v", name, qt, err)
			}
		}
	}
}

func TestZoneFileEscapes(t *testing.T) {
	in := "$ORIGIN e.example.\nt IN TXT \"back\\\\slash and \\\"quote\"\n"
	z, err := ParseZoneFile(strings.NewReader(in), "")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{})
	s.AddZone(z)
	resp := s.HandleDNS(netip.MustParseAddr("198.51.100.1"), query("t.e.example", dnswire.TypeTXT))
	got := resp.Answers[0].Data.(*dnswire.TXTRData).Strings[0]
	if got != "back\\slash and \"quote" {
		t.Fatalf("escaped TXT = %q", got)
	}
	// Trailing bare backslash is an error, not silent truncation.
	if _, err := ParseZoneFile(strings.NewReader("$ORIGIN e.example.\nt IN TXT \"oops\\\n"), ""); err == nil {
		t.Fatal("dangling escape accepted")
	}
}
