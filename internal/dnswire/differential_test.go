package dnswire

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
)

// The differential tests pin the contract stated on AppendPack and
// UnpackInto: the fast append/reuse paths must be observably identical
// to Pack and Unpack for every input — byte-identical wire output,
// reflect.DeepEqual structs (once decoded has read an empty slice as
// nil), and the same errors — including when the reused Message is
// dirty with the remains of a previous, differently shaped decode.

var diffLabels = []string{
	"a", "ns1", "scan", "example", "org", "net", "cdn", "edge",
	"very-long-label-padding-padding", "xy", "t0",
}

func randDiffName(r *rand.Rand) Name {
	if r.Intn(12) == 0 {
		return Root
	}
	depth := 1 + r.Intn(4)
	var b []byte
	for i := 0; i < depth; i++ {
		b = append(b, diffLabels[r.Intn(len(diffLabels))]...)
		b = append(b, '.')
	}
	return Name(b)
}

func randDiffRData(r *rand.Rand) RData {
	switch r.Intn(9) {
	case 0:
		var a [4]byte
		r.Read(a[:])
		return &ARData{Addr: netip.AddrFrom4(a)}
	case 1:
		var a [16]byte
		r.Read(a[:])
		return &AAAARData{Addr: netip.AddrFrom16(a)}
	case 2:
		return &CNAMERData{Target: randDiffName(r)}
	case 3:
		return &NSRData{Host: randDiffName(r)}
	case 4:
		return &PTRRData{Target: randDiffName(r)}
	case 5:
		return &MXRData{Preference: uint16(r.Uint32()), Host: randDiffName(r)}
	case 6:
		n := r.Intn(3)
		var ss []string
		for i := 0; i < n; i++ {
			buf := make([]byte, r.Intn(20))
			r.Read(buf)
			ss = append(ss, string(buf))
		}
		return &TXTRData{Strings: ss}
	case 7:
		return &SOARData{
			MName: randDiffName(r), RName: randDiffName(r),
			Serial: r.Uint32(), Refresh: r.Uint32(), Retry: r.Uint32(),
			Expire: r.Uint32(), Minimum: r.Uint32(),
		}
	default:
		raw := make([]byte, r.Intn(24))
		r.Read(raw)
		if len(raw) == 0 {
			raw = nil
		}
		return &UnknownRData{T: Type(200 + r.Intn(50)), Raw: raw}
	}
}

func randDiffRR(r *rand.Rand) RR {
	return RR{
		Name:  randDiffName(r),
		Class: ClassINET,
		TTL:   uint32(r.Intn(86400)),
		Data:  randDiffRData(r),
	}
}

func randDiffMessage(r *rand.Rand) *Message {
	m := &Message{
		Header: Header{
			ID:                 uint16(r.Uint32()),
			Response:           r.Intn(2) == 0,
			OpCode:             OpCode(r.Intn(3)),
			Authoritative:      r.Intn(2) == 0,
			Truncated:          r.Intn(4) == 0,
			RecursionDesired:   r.Intn(2) == 0,
			RecursionAvailable: r.Intn(2) == 0,
			AuthenticData:      r.Intn(4) == 0,
			CheckingDisabled:   r.Intn(4) == 0,
			RCode:              RCode(r.Intn(16)),
		},
	}
	for i := r.Intn(3); i > 0; i-- {
		m.Questions = append(m.Questions, Question{
			Name: randDiffName(r), Type: TypeA, Class: ClassINET,
		})
	}
	for i := r.Intn(4); i > 0; i-- {
		m.Answers = append(m.Answers, randDiffRR(r))
	}
	for i := r.Intn(3); i > 0; i-- {
		m.Authorities = append(m.Authorities, randDiffRR(r))
	}
	for i := r.Intn(3); i > 0; i-- {
		m.Additionals = append(m.Additionals, randDiffRR(r))
	}
	if r.Intn(2) == 0 {
		e := &EDNS{
			UDPSize: uint16(512 + r.Intn(4096)),
			Version: uint8(r.Intn(2)),
			DO:      r.Intn(2) == 0,
		}
		for i := r.Intn(3); i > 0; i-- {
			data := make([]byte, r.Intn(12))
			r.Read(data)
			if len(data) == 0 {
				data = nil
			}
			e.Options = append(e.Options, Option{Code: uint16(r.Intn(16)), Data: data})
		}
		m.EDNS = e
		// Extended rcodes only survive a round trip when an OPT is
		// present to carry the upper bits.
		if r.Intn(4) == 0 {
			m.RCode = RCode(r.Intn(4096))
		}
	}
	return m
}

// diffCheckPack asserts Pack and AppendPack (bare, and behind a junk
// prefix) agree for m, returning the wire bytes when packing succeeded.
func diffCheckPack(t *testing.T, m *Message) []byte {
	t.Helper()
	want, errWant := m.Pack()

	got, errGot := m.AppendPack(nil)
	if (errWant == nil) != (errGot == nil) {
		t.Fatalf("Pack err=%v AppendPack err=%v", errWant, errGot)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("AppendPack(nil) differs from Pack:\n  pack   %x\n  append %x", want, got)
	}

	prefix := []byte("\xff\x00junk")
	got2, errGot2 := m.AppendPack(prefix)
	if (errWant == nil) != (errGot2 == nil) {
		t.Fatalf("Pack err=%v AppendPack(prefix) err=%v", errWant, errGot2)
	}
	if errWant == nil {
		if !bytes.Equal(got2[:len(prefix)], prefix) {
			t.Fatalf("AppendPack clobbered its prefix: %x", got2[:len(prefix)])
		}
		if !bytes.Equal(want, got2[len(prefix):]) {
			t.Fatalf("AppendPack behind prefix differs from Pack:\n  pack   %x\n  append %x",
				want, got2[len(prefix):])
		}
	}
	return want
}

// diffCheckUnpack asserts Unpack and UnpackInto-into-dirty agree for the
// given wire bytes. dirty is decoded-into as-is (its previous contents
// are the point) and returned for the next round.
func diffCheckUnpack(t *testing.T, wire []byte, dirty *Message) *Message {
	t.Helper()
	fresh, errFresh := Unpack(wire)
	errReuse := UnpackInto(dirty, wire)
	if (errFresh == nil) != (errReuse == nil) {
		t.Fatalf("Unpack err=%v UnpackInto err=%v (wire %x)", errFresh, errReuse, wire)
	}
	if errFresh != nil {
		if errFresh != errReuse {
			t.Fatalf("error mismatch: Unpack %v, UnpackInto %v (wire %x)", errFresh, errReuse, wire)
		}
		// Contents are undefined after a failed decode: hand the next
		// round a fresh dirty Message instead.
		return &Message{}
	}
	if !reflect.DeepEqual(decoded(fresh), decoded(dirty)) {
		t.Fatalf("UnpackInto differs from Unpack:\n  fresh %#v\n  reuse %#v\n  wire %x", fresh, dirty, wire)
	}
	return dirty
}

// decoded is m as two decodes of the same wire are compared: an empty
// section, option list or option payload reads as nil, and the OPT
// record set aside for a later decode is left out. A reused Message
// keeps those for the next decode, where Unpack's fresh one has none.
func decoded(m *Message) Message {
	out := *m
	out.spareEDNS = nil
	out.Questions = nilIfEmpty(out.Questions)
	out.Answers = nilIfEmpty(out.Answers)
	out.Authorities = nilIfEmpty(out.Authorities)
	out.Additionals = nilIfEmpty(out.Additionals)
	if m.EDNS != nil {
		e := *m.EDNS
		e.Options = nil
		for _, o := range m.EDNS.Options {
			e.Options = append(e.Options, Option{Code: o.Code, Data: nilIfEmpty(o.Data)})
		}
		out.EDNS = &e
	}
	return out
}

func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

func TestDifferentialCodec(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(7))
	dirty := &Message{}
	for i := 0; i < 3000; i++ {
		m := randDiffMessage(r)
		wire := diffCheckPack(t, m)
		if wire == nil {
			continue
		}
		dirty = diffCheckUnpack(t, wire, dirty)

		// Also diff the error paths: mutated wire must fail (or succeed)
		// identically through both decoders.
		if len(wire) > 0 && i%2 == 0 {
			corrupt := append([]byte(nil), wire...)
			for n := 1 + r.Intn(3); n > 0; n-- {
				corrupt[r.Intn(len(corrupt))] ^= byte(1 << r.Intn(8))
			}
			if r.Intn(4) == 0 {
				corrupt = corrupt[:r.Intn(len(corrupt)+1)]
			}
			dirty = diffCheckUnpack(t, corrupt, dirty)
		}
	}
}

// TestDifferentialCodecRace is the bounded concurrent variant: parallel
// subtests exercise the builder/unpackState pools from several
// goroutines at once so -race can see into the pooled scratch reuse.
func TestDifferentialCodecRace(t *testing.T) {
	t.Parallel()
	const workers = 8
	for w := 0; w < workers; w++ {
		seed := int64(100 + w)
		t.Run(fmt.Sprintf("worker%d", w), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			dirty := &Message{}
			for i := 0; i < 200; i++ {
				m := randDiffMessage(r)
				wire := diffCheckPack(t, m)
				if wire == nil {
					continue
				}
				dirty = diffCheckUnpack(t, wire, dirty)
			}
		})
	}
}

// mapOnlyPack is the reference the compression table is held to: the
// same encoders over a builder whose table is already full (of zero
// entries, which match no suffix), so every compression target goes to
// and comes from the map — the packer as it was before the table.
func mapOnlyPack(m *Message, prefix []byte, compress bool) ([]byte, error) {
	b := &builder{spill: make(map[Name]int)}
	b.ntab = len(b.table)
	b.buf = append([]byte(nil), prefix...)
	b.base = len(prefix)
	return m.packInto(b, compress)
}

// diffCheckTable asserts the table-then-map packer and the map-only
// reference produce the same bytes (or both fail) for m: compressed,
// compressed behind a prefix, and with compression off.
func diffCheckTable(t *testing.T, m *Message) {
	t.Helper()
	prefix := []byte("\x01\x02frame")
	for _, tc := range []struct {
		name     string
		prefix   []byte
		compress bool
		pack     func() ([]byte, error)
	}{
		{"Pack", nil, true, m.Pack},
		{"AppendPack behind a prefix", prefix, true, func() ([]byte, error) { return m.AppendPack(append([]byte(nil), prefix...)) }},
		{"PackNoCompress", nil, false, m.PackNoCompress},
	} {
		want, errWant := mapOnlyPack(m, tc.prefix, tc.compress)
		got, errGot := tc.pack()
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("%s: err=%v, map-only reference err=%v", tc.name, errGot, errWant)
		}
		if errWant == nil && !bytes.Equal(want, got) {
			t.Fatalf("%s differs from the map-only reference:\n  table %x\n  map   %x", tc.name, got, want)
		}
	}
}

// TestPackMatchesMapOnlyReference is the byte-identity guarantee of the
// builder's compression table: where a suffix is remembered must never
// show in what is packed.
func TestPackMatchesMapOnlyReference(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(11))
	spilled := 0
	for i := 0; i < 3000; i++ {
		m := randDiffMessage(r)
		diffCheckTable(t, m)
		// Count the messages that outgrow the table, so the stream is
		// known to exercise both sides of the hand-over.
		b := &builder{spill: make(map[Name]int)}
		if _, err := m.packInto(b, true); err == nil && len(b.spill) > 0 {
			spilled++
		}
	}
	if spilled == 0 || spilled == 3000 {
		t.Fatalf("%d of 3000 random messages spilled past the table; want some on each side", spilled)
	}

	t.Run("many suffixes", func(t *testing.T) {
		// 60 owners and 60 targets sharing parents: the table fills on
		// the third record and suffixes registered in it are still
		// pointed at from records that register in the map.
		m := NewResponse(NewQuery(9, "www.example.org.", TypeA))
		for i := 0; i < 60; i++ {
			m.Answers = append(m.Answers, RR{
				Name: Name(fmt.Sprintf("h%d.z%d.example.org.", i, i%7)), Class: ClassINET, TTL: 30,
				Data: &CNAMERData{Target: Name(fmt.Sprintf("t%d.z%d.cdn.example.net.", i, i%5))},
			})
		}
		diffCheckTable(t, m)
	})

	t.Run("offset horizon", func(t *testing.T) {
		// ~20 KiB of TXT pushes later names past offset 0x3FFF: they may
		// point back below the horizon but are not registered themselves.
		m := NewResponse(NewQuery(9, "www.example.org.", TypeA))
		pad := strings.Repeat("x", 250)
		for i := 0; i < 80; i++ {
			m.Answers = append(m.Answers, RR{
				Name: "www.example.org.", Class: ClassINET, TTL: 30,
				Data: &TXTRData{Strings: []string{pad}},
			})
		}
		for i := 0; i < 4; i++ {
			m.Additionals = append(m.Additionals, RR{
				Name: "late.beyond.horizon.example.org.", Class: ClassINET, TTL: 30,
				Data: &NSRData{Host: "ns.late.beyond.horizon.example.org."},
			})
		}
		wire, err := m.Pack()
		if err != nil || len(wire) <= 0x4000 {
			t.Fatalf("Pack = %d bytes, %v; want a message past the 0x3FFF horizon", len(wire), err)
		}
		diffCheckTable(t, m)
	})
}
