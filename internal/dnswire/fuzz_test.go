package dnswire

import (
	"bytes"
	"net/netip"
	"reflect"
	"strings"
	"testing"
)

// FuzzUnpack exercises the decoder with mutated wire data: it must never
// panic, and anything it accepts must re-encode and re-decode to the
// same question section (the invariant resolvers rely on).
func FuzzUnpack(f *testing.F) {
	q := NewQuery(7, "www.example.com.", TypeA)
	q.EDNS = NewEDNS()
	q.EDNS.SetOption(Option{Code: OptionCodeECS, Data: []byte{0, 1, 24, 0, 192, 0, 2}})
	seed1, err := q.Pack()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed1)

	r := NewResponse(q)
	r.Answers = []RR{
		{Name: "www.example.com.", Class: ClassINET, TTL: 20,
			Data: &ARData{Addr: netip.MustParseAddr("192.0.2.1")}},
		{Name: "www.example.com.", Class: ClassINET, TTL: 20,
			Data: &CNAMERData{Target: "edge.example.net."}},
		{Name: "www.example.com.", Class: ClassINET, TTL: 20,
			Data: &TXTRData{Strings: []string{"a", "b"}}},
	}
	r.Authorities = []RR{
		{Name: "example.com.", Class: ClassINET, TTL: 60, Data: &SOARData{
			MName: "ns1.example.com.", RName: "hostmaster.example.com.",
			Serial: 1, Refresh: 2, Retry: 3, Expire: 4, Minimum: 5,
		}},
	}
	seed2, err := r.Pack()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed2)
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0x80, 0, 0, 0, 0xFF, 0xFF, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Clip the capacity to the length: a read one byte past the end
		// then panics on every input, not only on those whose capacity
		// happens to be exact.
		data = data[:len(data):len(data)]
		m, err := Unpack(data)
		if err != nil {
			return
		}
		repacked, err := m.Pack()
		if err != nil {
			// Some decodable messages exceed re-encoding limits (e.g.
			// compression-expanded rdata); that is acceptable, panics
			// are not.
			return
		}
		if ref, err := mapOnlyPack(m, nil, true); err != nil || !bytes.Equal(ref, repacked) {
			t.Fatalf("Pack differs from the map-only reference (err %v):\n  table %x\n  map   %x", err, repacked, ref)
		}
		m2, err := Unpack(repacked)
		if err != nil {
			t.Fatalf("repacked message undecodable: %v\noriginal: %x\nrepacked: %x", err, data, repacked)
		}
		if len(m.Questions) != len(m2.Questions) {
			t.Fatalf("question count changed: %d → %d", len(m.Questions), len(m2.Questions))
		}
		for i := range m.Questions {
			if m.Questions[i] != m2.Questions[i] {
				t.Fatalf("question %d changed: %v → %v", i, m.Questions[i], m2.Questions[i])
			}
		}
		if m.ID != m2.ID || m.RCode != m2.RCode || m.Response != m2.Response {
			t.Fatal("header fields changed across repack")
		}
	})
}

// FuzzUnpackReuse fuzzes the Message-reuse decode path against fresh
// Unpack as the oracle: after dirtying a Message with one arbitrary
// decode (successful or not), UnpackInto on a second input must return
// the same error as Unpack and — on success — a struct DeepEqual to the
// fresh decode, an empty slice reading as nil (decoded). This is the
// check that catches stale fields leaking out of reused Messages.
func FuzzUnpackReuse(f *testing.F) {
	q := NewQuery(7, "www.example.com.", TypeA)
	q.EDNS = NewEDNS()
	q.EDNS.SetOption(Option{Code: OptionCodeECS, Data: []byte{0, 1, 24, 0, 192, 0, 2}})
	seed1, err := q.Pack()
	if err != nil {
		f.Fatal(err)
	}
	r := NewResponse(q)
	r.Answers = []RR{
		{Name: "www.example.com.", Class: ClassINET, TTL: 20,
			Data: &ARData{Addr: netip.MustParseAddr("192.0.2.1")}},
		{Name: "www.example.com.", Class: ClassINET, TTL: 20,
			Data: &TXTRData{Strings: []string{"alpha", "beta"}}},
	}
	r.EDNS = NewEDNS()
	seed2, err := r.Pack()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed1, seed2)
	f.Add(seed2, seed1)
	f.Add(seed1, seed1)
	f.Add([]byte{}, seed2)
	f.Add(seed2, []byte{0, 1, 0x80, 0, 0, 0, 0xFF, 0xFF, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, dirt, data []byte) {
		dirt, data = dirt[:len(dirt):len(dirt)], data[:len(data):len(data)] // see FuzzUnpack
		m := &Message{}
		// First decode only exists to dirty m; failure is fine — a reused
		// Message carrying the debris of a failed decode must still be a
		// valid reuse target.
		_ = UnpackInto(m, dirt)

		fresh, errFresh := Unpack(data)
		errReuse := UnpackInto(m, data)
		if (errFresh == nil) != (errReuse == nil) {
			t.Fatalf("Unpack err=%v, UnpackInto err=%v\ndirt: %x\ndata: %x", errFresh, errReuse, dirt, data)
		}
		if errFresh != nil {
			if errFresh != errReuse {
				t.Fatalf("error mismatch: Unpack %v, UnpackInto %v\ndirt: %x\ndata: %x", errFresh, errReuse, dirt, data)
			}
			return
		}
		if !reflect.DeepEqual(decoded(fresh), decoded(m)) {
			t.Fatalf("reused decode differs from fresh:\nfresh: %#v\nreuse: %#v\ndirt: %x\ndata: %x",
				fresh, m, dirt, data)
		}
	})
}

// FuzzNameParse checks ParseName never panics and that accepted names
// survive a wire round trip.
func FuzzNameParse(f *testing.F) {
	for _, s := range []string{"example.com", ".", "a.b.c.d.e", "p-1-2-3-4.scan.org", "UPPER.Case."} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, err := ParseName(s)
		if err != nil {
			return
		}
		q := NewQuery(1, n, TypeA)
		data, err := q.Pack()
		if err != nil {
			t.Fatalf("accepted name %q failed to pack: %v", n, err)
		}
		got, err := Unpack(data)
		if err != nil {
			t.Fatalf("accepted name %q failed to unpack: %v", n, err)
		}
		if got.Question().Name != n {
			// Names with bytes that collide with the presentation
			// separator cannot round-trip textually; they must still
			// decode to *something* without error.
			if !bytes.ContainsAny([]byte(n), ".") {
				t.Fatalf("name changed: %q → %q", n, got.Question().Name)
			}
		}
	})
}

// FuzzNamePrepend holds Prepend's short cut — check and fold the new
// label only, concatenate once — to the long way round it replaced:
// parsing the joined string. Same Name, same error, for any label.
func FuzzNamePrepend(f *testing.F) {
	l63 := strings.Repeat("L", 63)
	// 3×63 + 59 + 4 dots + the root octet = 253: a 1-byte label makes
	// 255, the longest name there is; a 2-byte label is one too many.
	p253 := strings.Repeat("a", 63) + "." + strings.Repeat("b", 63) + "." + strings.Repeat("c", 63) + "." + strings.Repeat("d", 59)
	for _, seed := range [][2]string{
		{"p-1-2-3-4", "scan.example.org"},
		{"UPPER", "Mixed.Case.example"},
		{"bulk7", "."},
		{"", "example.org"},
		{"", "."},
		{".", "."},
		{"a.b", "example.org"},
		{"a..b", "example.org"},
		{"sp ace", "example.org"},
		{"del\x7f", "example.org"},
		{"\xe9t\xe9", "example.org"},
		{l63, "example.org"},
		{l63 + "x", "example.org"},
		{"x", p253},
		{"xy", p253},
		{"sp ace" + l63, p253},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, label, parent string) {
		n, err := ParseName(parent)
		if err != nil {
			return
		}
		joined := label + "." + string(n)
		if n == Root {
			joined = label
		}
		want, wantErr := ParseName(joined)
		got, gotErr := n.Prepend(label)
		if got != want || gotErr != wantErr {
			t.Fatalf("%q.Prepend(%q) = %q, %v; ParseName(%q) = %q, %v", n, label, got, gotErr, joined, want, wantErr)
		}
	})
}
