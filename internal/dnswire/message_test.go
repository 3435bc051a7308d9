package dnswire

import (
	"bytes"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleResponse() *Message {
	q := NewQuery(0x1234, MustParseName("www.example.com"), TypeA)
	r := NewResponse(q)
	r.Authoritative = true
	r.Answers = []RR{
		{
			Name: "www.example.com.", Class: ClassINET, TTL: 20,
			Data: &CNAMERData{Target: "edge.cdn.example.net."},
		},
		{
			Name: "edge.cdn.example.net.", Class: ClassINET, TTL: 20,
			Data: &ARData{Addr: netip.MustParseAddr("192.0.2.17")},
		},
	}
	r.Authorities = []RR{
		{
			Name: "cdn.example.net.", Class: ClassINET, TTL: 3600,
			Data: &NSRData{Host: "ns1.cdn.example.net."},
		},
	}
	r.Additionals = []RR{
		{
			Name: "ns1.cdn.example.net.", Class: ClassINET, TTL: 3600,
			Data: &ARData{Addr: netip.MustParseAddr("198.51.100.53")},
		},
	}
	return r
}

func TestMessageRoundTrip(t *testing.T) {
	t.Parallel()
	m := sampleResponse()
	data, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\nsent: %v\ngot:  %v", m, got)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	t.Parallel()
	q := NewQuery(7, MustParseName("probe-1-2-3-4.scan.example.org"), TypeAAAA)
	data, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Response || got.ID != 7 || !got.RecursionDesired {
		t.Fatalf("header mismatch: %+v", got.Header)
	}
	if got.Question() != q.Question() {
		t.Fatalf("question mismatch: %v vs %v", got.Question(), q.Question())
	}
}

func TestCompressionShrinksMessages(t *testing.T) {
	t.Parallel()
	m := sampleResponse()
	packed, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	flat, err := m.PackNoCompress()
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) >= len(flat) {
		t.Fatalf("compression did not shrink: %d vs %d", len(packed), len(flat))
	}
	// Both forms must decode identically.
	a, err := Unpack(packed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Unpack(flat)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("compressed and uncompressed decode differently")
	}
}

func TestAllRDataTypesRoundTrip(t *testing.T) {
	t.Parallel()
	rrs := []RR{
		{Name: "a.example.", Class: ClassINET, TTL: 1, Data: &ARData{Addr: netip.MustParseAddr("10.1.2.3")}},
		{Name: "aaaa.example.", Class: ClassINET, TTL: 2, Data: &AAAARData{Addr: netip.MustParseAddr("2001:db8::1")}},
		{Name: "cn.example.", Class: ClassINET, TTL: 3, Data: &CNAMERData{Target: "t.example."}},
		{Name: "ns.example.", Class: ClassINET, TTL: 4, Data: &NSRData{Host: "ns1.example."}},
		{Name: "ptr.example.", Class: ClassINET, TTL: 5, Data: &PTRRData{Target: "host.example."}},
		{Name: "mx.example.", Class: ClassINET, TTL: 6, Data: &MXRData{Preference: 10, Host: "mail.example."}},
		{Name: "txt.example.", Class: ClassINET, TTL: 7, Data: &TXTRData{Strings: []string{"hello", "world"}}},
		{Name: "soa.example.", Class: ClassINET, TTL: 8, Data: &SOARData{
			MName: "ns1.example.", RName: "hostmaster.example.",
			Serial: 2019102101, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 60,
		}},
		{Name: "raw.example.", Class: ClassINET, TTL: 9, Data: &UnknownRData{T: Type(999), Raw: []byte{1, 2, 3}}},
	}
	m := &Message{Header: Header{ID: 1, Response: true}, Answers: rrs}
	data, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Answers, got.Answers) {
		t.Fatalf("answers mismatch:\n%v\n%v", m.Answers, got.Answers)
	}
}

func TestHeaderFlagsRoundTrip(t *testing.T) {
	t.Parallel()
	check := func(h Header) bool {
		h.OpCode &= 0xF
		h.RCode &= 0xF // without EDNS only 4 bits travel
		m := &Message{Header: h}
		data, err := m.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(data)
		if err != nil {
			return false
		}
		return got.Header == h
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExtendedRCodeViaEDNS(t *testing.T) {
	t.Parallel()
	m := &Message{Header: Header{ID: 9, Response: true, RCode: RCodeBadVers}}
	m.EDNS = NewEDNS()
	data, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.RCode != RCodeBadVers {
		t.Fatalf("extended rcode = %v, want BADVERS", got.RCode)
	}
	if got.EDNS == nil || got.EDNS.UDPSize != 4096 {
		t.Fatalf("EDNS not preserved: %+v", got.EDNS)
	}
}

func TestEDNSOptionsRoundTrip(t *testing.T) {
	t.Parallel()
	m := NewQuery(3, "example.com.", TypeA)
	m.EDNS = NewEDNS()
	m.EDNS.DO = true
	m.EDNS.SetOption(Option{Code: OptionCodeECS, Data: []byte{0, 1, 24, 0, 192, 0, 2}})
	m.EDNS.SetOption(Option{Code: OptionCodeCookie, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}})
	data, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.EDNS == nil || !got.EDNS.DO {
		t.Fatalf("EDNS flags lost: %+v", got.EDNS)
	}
	o, ok := got.EDNS.Option(OptionCodeECS)
	if !ok || !bytes.Equal(o.Data, []byte{0, 1, 24, 0, 192, 0, 2}) {
		t.Fatalf("ECS option lost: %v %v", ok, o)
	}
	if _, ok := got.EDNS.Option(OptionCodeCookie); !ok {
		t.Fatal("cookie option lost")
	}
}

func TestEDNSSetAndRemoveOption(t *testing.T) {
	t.Parallel()
	e := NewEDNS()
	e.SetOption(Option{Code: 8, Data: []byte{1}})
	e.SetOption(Option{Code: 8, Data: []byte{2}})
	if len(e.Options) != 1 || e.Options[0].Data[0] != 2 {
		t.Fatalf("SetOption did not replace: %v", e.Options)
	}
	if !e.RemoveOption(8) {
		t.Fatal("RemoveOption returned false for present option")
	}
	if e.RemoveOption(8) {
		t.Fatal("RemoveOption returned true for absent option")
	}
}

func TestUnpackRejectsMalformed(t *testing.T) {
	t.Parallel()
	valid, err := sampleResponse().Pack()
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]byte{
		nil,
		{},
		valid[:5],            // mid-header
		valid[:len(valid)-3], // mid-record
		append(append([]byte{}, valid...), 0xde, 0xad), // trailing garbage
	}
	for i, c := range cases {
		if _, err := Unpack(c); err == nil {
			t.Errorf("case %d: malformed message accepted", i)
		}
	}
}

func TestUnpackRejectsCountBomb(t *testing.T) {
	t.Parallel()
	// Header claiming 65535 answers with no body.
	hdr := []byte{0, 1, 0x80, 0, 0, 0, 0xFF, 0xFF, 0, 0, 0, 0}
	if _, err := Unpack(hdr); err != ErrTooManyRRs {
		t.Fatalf("count bomb: got %v, want ErrTooManyRRs", err)
	}
}

func TestUnpackRejectsPointerLoop(t *testing.T) {
	t.Parallel()
	// A question name that is a pointer to itself at offset 12.
	msg := []byte{
		0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
		0xC0, 12, // pointer to itself
		0, 1, 0, 1,
	}
	if _, err := Unpack(msg); err == nil {
		t.Fatal("self-pointer accepted")
	}
}

func TestUnpackRejectsForwardPointer(t *testing.T) {
	t.Parallel()
	msg := []byte{
		0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
		0xC0, 14, // forward pointer
		0, 1, 0, 1,
	}
	if _, err := Unpack(msg); err == nil {
		t.Fatal("forward pointer accepted")
	}
}

func TestUnpackCaseFolds(t *testing.T) {
	t.Parallel()
	m := NewQuery(1, "example.com.", TypeA)
	data, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Upper-case the first label byte on the wire ('e' at offset 13).
	if data[13] != 'e' {
		t.Fatalf("unexpected wire layout: %x", data)
	}
	data[13] = 'E'
	got, err := Unpack(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Question().Name != "example.com." {
		t.Fatalf("case not folded: %q", got.Question().Name)
	}
}

func TestTruncateTo(t *testing.T) {
	t.Parallel()
	m := sampleResponse()
	for i := 0; i < 40; i++ {
		m.Answers = append(m.Answers, RR{
			Name: "edge.cdn.example.net.", Class: ClassINET, TTL: 20,
			Data: &ARData{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})},
		})
	}
	data, err := m.AppendTruncateTo(nil, 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 512 {
		t.Fatalf("truncated message still %d bytes", len(data))
	}
	got, err := Unpack(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Truncated {
		t.Fatal("TC flag not set after truncation")
	}
	if len(got.Answers) == 0 {
		t.Fatal("all answers dropped unnecessarily")
	}
}

func TestTruncateToNoOpWhenSmall(t *testing.T) {
	t.Parallel()
	m := sampleResponse()
	data, err := m.AppendTruncateTo(nil, 512)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Truncated {
		t.Fatal("TC set although message fit")
	}
}

func TestUnpackFuzzDoesNotPanic(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(42))
	valid, err := sampleResponse().Pack()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		buf := make([]byte, len(valid))
		copy(buf, valid)
		// Flip a handful of random bytes.
		for j := 0; j < 4; j++ {
			buf[rng.Intn(len(buf))] = byte(rng.Intn(256))
		}
		m, err := Unpack(buf)
		if err == nil {
			// If it decoded, it must re-encode without panicking.
			if _, err := m.Pack(); err != nil && err != errTooManySections {
				t.Fatalf("repack of decoded message failed: %v", err)
			}
		}
	}
}

func TestMessageStringSmoke(t *testing.T) {
	t.Parallel()
	m := sampleResponse()
	m.EDNS = NewEDNS()
	s := m.String()
	for _, want := range []string{"QUERY response", "ANSWER", "AUTHORITY", "ADDITIONAL", "EDNS"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestTypeClassRCodeStrings(t *testing.T) {
	t.Parallel()
	if TypeA.String() != "A" || Type(4242).String() != "TYPE4242" {
		t.Error("Type.String misbehaves")
	}
	if ClassINET.String() != "IN" || Class(77).String() != "CLASS77" {
		t.Error("Class.String misbehaves")
	}
	if RCodeNXDomain.String() != "NXDOMAIN" || RCode(99).String() != "RCODE99" {
		t.Error("RCode.String misbehaves")
	}
	if OpQuery.String() != "QUERY" || OpCode(7).String() != "OPCODE7" {
		t.Error("OpCode.String misbehaves")
	}
}

func TestPeekPatchID(t *testing.T) {
	t.Parallel()
	msg := sampleResponse()
	msg.Header.ID = 0xBEEF
	wire, err := msg.Pack()
	if err != nil {
		t.Fatal(err)
	}
	id, ok := PeekID(wire)
	if !ok || id != 0xBEEF {
		t.Fatalf("PeekID = %#x, %v; want 0xbeef, true", id, ok)
	}
	if !PatchID(wire, 0x1234) {
		t.Fatal("PatchID rejected a full message")
	}
	if id, _ := PeekID(wire); id != 0x1234 {
		t.Fatalf("after PatchID, PeekID = %#x, want 0x1234", id)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatalf("patched message no longer unpacks: %v", err)
	}
	if got.Header.ID != 0x1234 {
		t.Fatalf("unpacked ID = %#x, want 0x1234", got.Header.ID)
	}

	// Both reject buffers shorter than a DNS header.
	short := make([]byte, 11)
	if _, ok := PeekID(short); ok {
		t.Error("PeekID accepted a truncated header")
	}
	if PatchID(short, 1) {
		t.Error("PatchID accepted a truncated header")
	}
}

func TestUnpackRejectsBadLabelBytes(t *testing.T) {
	t.Parallel()
	// A '.' or control byte inside a wire label has no unambiguous
	// presentation form, so the decoder must reject it (fuzz-found: such
	// names re-encoded as different labels and broke the repack round
	// trip).
	header := []byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}
	for _, label := range [][]byte{
		{3, 'a', '.', 'b'},
		{3, 'a', 0x1f, 'b'},
		{3, 'a', ' ', 'b'},
		{3, 'a', 127, 'b'},
	} {
		wire := append(append(append([]byte{}, header...), label...),
			0, 0, 1, 0, 1) // root, qtype A, qclass IN
		if _, err := Unpack(wire); err == nil {
			t.Errorf("Unpack accepted label % x", label)
		}
	}
}
