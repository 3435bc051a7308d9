package dnswire

import (
	"net/netip"
	"strings"
	"testing"
)

// TestCompressionOffsetHorizon: names first occurring beyond the 14-bit
// pointer horizon must not be registered as compression targets, and the
// message must still round-trip.
func TestCompressionOffsetHorizon(t *testing.T) {
	m := &Message{Header: Header{ID: 1, Response: true}}
	// Fill the message past 0x4000 bytes with TXT records under unique
	// owners, then add two records sharing a late-appearing owner.
	filler := strings.Repeat("x", 250)
	for i := 0; i < 70; i++ {
		m.Answers = append(m.Answers, RR{
			Name:  Name(string(rune('a'+i%26)) + mustLabel(i) + ".fill.example."),
			Class: ClassINET, TTL: 1,
			Data: &TXTRData{Strings: []string{filler}},
		})
	}
	late := Name("late.appearing.owner.example.")
	for i := 0; i < 2; i++ {
		m.Answers = append(m.Answers, RR{
			Name: late, Class: ClassINET, TTL: 1,
			Data: &ARData{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})},
		})
	}
	data, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) <= 0x4000 {
		t.Fatalf("message only %d bytes; test needs to cross the pointer horizon", len(data))
	}
	got, err := Unpack(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != len(m.Answers) {
		t.Fatalf("answers = %d, want %d", len(got.Answers), len(m.Answers))
	}
	for _, rr := range got.Answers[len(got.Answers)-2:] {
		if rr.Name != late {
			t.Fatalf("late owner decoded as %q", rr.Name)
		}
	}
}

func mustLabel(i int) string {
	return string([]byte{'l', byte('0' + i/10%10), byte('0' + i%10)})
}

func TestEmptyTXTString(t *testing.T) {
	m := &Message{Header: Header{ID: 1, Response: true}}
	m.Answers = []RR{{
		Name: "t.example.", Class: ClassINET, TTL: 1,
		Data: &TXTRData{Strings: []string{""}},
	}}
	data, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(data)
	if err != nil {
		t.Fatal(err)
	}
	txt := got.Answers[0].Data.(*TXTRData)
	if len(txt.Strings) != 1 || txt.Strings[0] != "" {
		t.Fatalf("TXT = %+v", txt)
	}
}

func TestOversizeTXTStringTruncated(t *testing.T) {
	long := strings.Repeat("y", 300)
	m := &Message{Header: Header{ID: 1, Response: true}}
	m.Answers = []RR{{
		Name: "t.example.", Class: ClassINET, TTL: 1,
		Data: &TXTRData{Strings: []string{long}},
	}}
	data, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(data)
	if err != nil {
		t.Fatal(err)
	}
	s := got.Answers[0].Data.(*TXTRData).Strings[0]
	if len(s) != 255 {
		t.Fatalf("character-string length = %d, want clamped 255", len(s))
	}
}

func TestRootOwnerRecord(t *testing.T) {
	m := &Message{Header: Header{ID: 1, Response: true}}
	m.Answers = []RR{{
		Name: Root, Class: ClassINET, TTL: 518400,
		Data: &NSRData{Host: "a.root-servers.example."},
	}}
	data, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Answers[0].Name != Root {
		t.Fatalf("root owner decoded as %q", got.Answers[0].Name)
	}
}

func TestEDNSOptionBoundaryLengths(t *testing.T) {
	// An option whose declared length exceeds the rdata must be
	// rejected, not read out of bounds.
	m := NewQuery(1, "x.example.", TypeA)
	m.EDNS = NewEDNS()
	data, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Locate the OPT rdlen (last 2 bytes are rdlen=0 of the OPT); craft
	// a bogus option by appending one manually.
	data[len(data)-1] = 4            // rdlen = 4
	data = append(data, 0, 8, 0, 99) // option code 8, length 99, no data
	if _, err := Unpack(data); err == nil {
		t.Fatal("out-of-bounds option length accepted")
	}
}

func TestQuestionOnlyTruncationFloor(t *testing.T) {
	m := NewQuery(1, "very.long.name.that.will.not.fit.example.", TypeA)
	if _, err := m.AppendTruncateTo(nil, 12); err != nil {
		// Header alone fits in 12 bytes only if the question is
		// dropped, which AppendTruncateTo does not do — an error is the
		// correct outcome, not a panic or an oversized packet.
		return
	}
	// If it succeeded, the packed size must respect the bound.
	data, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 12 {
		t.Fatalf("AppendTruncateTo(nil, 12) returned but message is %d bytes", len(data))
	}
}

func TestUnpackClassANYAndUnknownTypes(t *testing.T) {
	m := &Message{Header: Header{ID: 9}}
	m.Questions = []Question{{Name: "x.example.", Type: TypeANY, Class: ClassANY}}
	data, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Question().Type != TypeANY || got.Question().Class != ClassANY {
		t.Fatalf("question = %v", got.Question())
	}
}
