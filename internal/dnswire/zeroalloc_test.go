package dnswire

import (
	"net/netip"
	"testing"
)

// scanQuery builds the message shape the scan pipeline encodes on every
// probe: one question plus an EDNS OPT carrying an ECS-sized option.
func scanQuery() *Message {
	m := NewQuery(0x1234, "p-7.scan.example.org.", TypeA)
	e := NewEDNS()
	e.SetOption(Option{
		Code: OptionCodeECS,
		Data: []byte{0x00, 0x01, 0x18, 0x00, 0xc0, 0x00, 0x02},
	})
	m.EDNS = e
	return m
}

// scanResponse builds a typical authoritative answer to scanQuery: the
// shape the pipeline decodes on every receive.
func scanResponse(t testing.TB) []byte {
	q := scanQuery()
	r := NewResponse(q)
	r.RecursionAvailable = true
	r.Answers = append(r.Answers, RR{
		Name: q.Question().Name, Class: ClassINET, TTL: 300,
		Data: &ARData{Addr: netip.MustParseAddr("192.0.2.53")},
	})
	r.EDNS = NewEDNS()
	r.EDNS.SetOption(Option{
		Code: OptionCodeECS,
		Data: []byte{0x00, 0x01, 0x18, 0x18, 0xc0, 0x00, 0x02},
	})
	wire, err := r.Pack()
	if err != nil {
		t.Fatalf("pack response: %v", err)
	}
	return wire
}

// The allocation gates below are regression tests, not benchmarks: they
// fail the build the moment a future change makes the steady-state
// encode or decode path allocate, which is the property the scan
// pipeline's throughput rests on.

func TestAllocGateAppendPack(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	m := scanQuery()
	buf := make([]byte, 0, 512)
	// Warm the builder pool and verify the path works at all.
	out, err := m.AppendPack(buf[:0])
	if err != nil {
		t.Fatalf("AppendPack: %v", err)
	}
	if len(out) == 0 {
		t.Fatal("AppendPack produced no bytes")
	}
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = m.AppendPack(buf[:0])
		if err != nil {
			t.Errorf("AppendPack: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state AppendPack allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestAllocGateUnpackInto decodes one answer again and again into one
// Message: each decode after the first must reuse it entirely. The
// long-name row's names are longer than 32 bytes, past which a name
// compared in a switch on string(scratch) is allocated on every decode,
// even when it matches.
func TestAllocGateUnpackInto(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	long := NewQuery(0x4242, "bulk100000.run1.allocation-gate.scan.test.", TypeA)
	long.EDNS = NewEDNS()
	longAnswer := NewResponse(long)
	longAnswer.Answers = append(longAnswer.Answers, RR{
		Name: long.Question().Name, Class: ClassINET, TTL: 300,
		Data: &ARData{Addr: netip.MustParseAddr("192.0.2.53")},
	})
	longWire, err := longAnswer.Pack()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		wire []byte
	}{
		{"scan-response", scanResponse(t)},
		{"long-name", longWire},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := &Message{}
			// First decode populates the Message; every following
			// decode of the same shape must reuse it entirely.
			if err := UnpackInto(m, tc.wire); err != nil {
				t.Fatalf("UnpackInto: %v", err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if err := UnpackInto(m, tc.wire); err != nil {
					t.Errorf("UnpackInto: %v", err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state UnpackInto allocates %.1f allocs/op, want 0", allocs)
			}
		})
	}
}

func TestAllocGateRoundTrip(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// The combined hot loop the pipeline runs per query: patch the ID of
	// a cached wire template, then decode the response in place.
	wire := scanResponse(t)
	query, err := scanQuery().Pack()
	if err != nil {
		t.Fatalf("pack query: %v", err)
	}
	m := &Message{}
	if err := UnpackInto(m, wire); err != nil {
		t.Fatalf("UnpackInto: %v", err)
	}
	id := uint16(1)
	allocs := testing.AllocsPerRun(200, func() {
		id++
		if !PatchID(query, id) {
			t.Error("PatchID failed")
		}
		if err := UnpackInto(m, wire); err != nil {
			t.Errorf("UnpackInto: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state patch+decode allocates %.1f allocs/op, want 0", allocs)
	}
}

// everyTypeResponse packs a response with one record of every RData type
// the codec decodes, plus one it carries raw.
func everyTypeResponse(t testing.TB) []byte {
	q := NewQuery(0x4242, "all.types.example.", TypeA)
	r := NewResponse(q)
	owner := q.Question().Name
	for _, d := range []RData{
		&ARData{Addr: netip.MustParseAddr("192.0.2.1")},
		&AAAARData{Addr: netip.MustParseAddr("2001:db8::1")},
		&CNAMERData{Target: "edge.example.net."},
		&NSRData{Host: "ns1.example.org."},
		&PTRRData{Target: "host.example.org."},
		&MXRData{Preference: 10, Host: "mx.example.org."},
		&TXTRData{Strings: []string{"v=gate", "second string"}},
		&SOARData{
			MName: "ns1.example.org.", RName: "hostmaster.example.org.",
			Serial: 1, Refresh: 2, Retry: 3, Expire: 4, Minimum: 5,
		},
		&UnknownRData{T: Type(65280), Raw: []byte{1, 2, 3}},
	} {
		r.Answers = append(r.Answers, RR{Name: owner, Class: ClassINET, TTL: 60, Data: d})
	}
	r.EDNS = NewEDNS()
	wire, err := r.Pack()
	if err != nil {
		t.Fatalf("pack response: %v", err)
	}
	return wire
}

// TestAllocGateUnpackIntoEveryType holds every rdata decoder to the
// reuse contract: re-decoding a record of unchanged type overwrites the
// payload already in the slot — names and TXT strings included — rather
// than allocating a new one.
func TestAllocGateUnpackIntoEveryType(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	wire := everyTypeResponse(t)
	m := &Message{}
	if err := UnpackInto(m, wire); err != nil {
		t.Fatalf("UnpackInto: %v", err)
	}
	if len(m.Answers) != 9 {
		t.Fatalf("decoded %d answers, want 9", len(m.Answers))
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := UnpackInto(m, wire); err != nil {
			t.Errorf("UnpackInto: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("re-decoding every rdata type allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestAllocGateAppendTruncateTo gates the server's send-path encode: an
// answer too big for a 512-byte datagram is cut record by record and
// repacked into the caller's buffer without allocating.
func TestAllocGateAppendTruncateTo(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	q := scanQuery()
	m := NewResponse(q)
	a := func(i byte) RR {
		return RR{Name: q.Question().Name, Class: ClassINET, TTL: 300,
			Data: &ARData{Addr: netip.AddrFrom4([4]byte{192, 0, 2, i})}}
	}
	for i := byte(1); i <= 40; i++ {
		m.Answers = append(m.Answers, a(i))
	}
	m.Authorities = []RR{a(41), a(42)}
	m.Additionals = []RR{a(43), a(44)}
	m.EDNS = NewEDNS()
	answers, authorities, additionals := m.Answers, m.Authorities, m.Additionals
	buf := make([]byte, 0, 4096)
	truncate := func() {
		// Each run truncates the full answer afresh: restore what the
		// previous run cut (slice headers only).
		m.Answers, m.Authorities, m.Additionals, m.Truncated = answers, authorities, additionals, false
		out, err := m.AppendTruncateTo(buf[:0], 512)
		if err != nil {
			t.Errorf("AppendTruncateTo: %v", err)
		}
		if len(out) > 512 || !m.Truncated || len(m.Additionals) != 0 {
			t.Errorf("got %d bytes, truncated=%v, %d additionals: the answer was not cut to fit",
				len(out), m.Truncated, len(m.Additionals))
		}
	}
	truncate()
	allocs := testing.AllocsPerRun(200, truncate)
	if allocs != 0 {
		t.Fatalf("truncating to 512 bytes allocates %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkPack(b *testing.B) {
	m := scanQuery()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Pack(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendPack(b *testing.B) {
	m := scanQuery()
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = m.AppendPack(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpack(b *testing.B) {
	wire := scanResponse(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unpack(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpackInto(b *testing.B) {
	wire := scanResponse(b)
	m := &Message{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := UnpackInto(m, wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPackCompression measures what name compression buys on a
// CDN-style response, twelve answers and a delegation under one zone:
// the time to pack it with and without, and its size (bytes/msg).
func BenchmarkPackCompression(b *testing.B) {
	m := NewResponse(NewQuery(1, "video.edge.cdn.example.net.", TypeA))
	for i := 0; i < 12; i++ {
		m.Answers = append(m.Answers, RR{
			Name: "video.edge.cdn.example.net.", Class: ClassINET, TTL: 20,
			Data: &ARData{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})},
		})
	}
	m.Authorities = append(m.Authorities, RR{
		Name: "cdn.example.net.", Class: ClassINET, TTL: 3600,
		Data: &NSRData{Host: "ns1.cdn.example.net."},
	})
	for _, tc := range []struct {
		name string
		pack func() ([]byte, error)
	}{{"compressed", m.Pack}, {"uncompressed", m.PackNoCompress}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var size int
			for i := 0; i < b.N; i++ {
				data, err := tc.pack()
				if err != nil {
					b.Fatal(err)
				}
				size = len(data)
			}
			b.ReportMetric(float64(size), "bytes/msg")
		})
	}
}
