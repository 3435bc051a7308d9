package dnswire

import (
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// appendNames appends every name m holds: the questions', then each
// record's owner and rdata names.
func appendNames(dst []Name, m *Message) []Name {
	for _, q := range m.Questions {
		dst = append(dst, q.Name)
	}
	for _, sec := range [][]RR{m.Answers, m.Authorities, m.Additionals} {
		for _, rr := range sec {
			dst = append(dst, rr.Name)
			switch d := rr.Data.(type) {
			case *CNAMERData:
				dst = append(dst, d.Target)
			case *NSRData:
				dst = append(dst, d.Host)
			case *PTRRData:
				dst = append(dst, d.Target)
			case *MXRData:
				dst = append(dst, d.Host)
			case *SOARData:
				dst = append(dst, d.MName, d.RName)
			}
		}
	}
	return dst
}

// TestDifferentialBorrowed holds UnpackBorrowedInto to Unpack as
// TestDifferentialCodec holds UnpackInto. Into one Message, decodes
// alternate at random between borrowed and owned, over valid and
// corrupted wires, and each must read as Unpack's, with the same error.
// Names kept after an owned decode, and a Clone's after a borrowed one,
// must be strings of their own: they still read the same once the next
// decode, which may be a borrowed one that rewrites the arena, is done.
func TestDifferentialBorrowed(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(11))
	m := &Message{}
	var kept, want []Name
	for i := 0; i < 3000; i++ {
		wire, err := randDiffMessage(r).Pack()
		if err != nil {
			continue
		}
		if i%3 == 0 {
			for n := 1 + r.Intn(3); n > 0; n-- {
				wire[r.Intn(len(wire))] ^= byte(1 << r.Intn(8))
			}
		}
		fresh, errFresh := Unpack(wire)
		borrow := r.Intn(2) == 0
		if borrow {
			err = UnpackBorrowedInto(m, wire)
		} else {
			err = UnpackInto(m, wire)
		}
		for j := range kept {
			if kept[j] != want[j] {
				t.Fatalf("decode %d (borrowed %v): a name kept as the Message's own reads %q, was %q", i, borrow, kept[j], want[j])
			}
		}
		kept, want = kept[:0], want[:0]
		if err != errFresh {
			t.Fatalf("decode %d (borrowed %v): err %v, Unpack's %v (wire %x)", i, borrow, err, errFresh, wire)
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(decoded(fresh), decoded(m)) {
			t.Fatalf("decode %d (borrowed %v) differs from Unpack:\n  fresh %#v\n  got   %#v", i, borrow, fresh, m)
		}
		own := m
		if borrow {
			if r.Intn(2) == 0 {
				continue
			}
			if own = m.Clone(); !reflect.DeepEqual(decoded(fresh), decoded(own)) {
				t.Fatalf("decode %d: the clone differs:\n  fresh %#v\n  got   %#v", i, fresh, own)
			}
		}
		kept, want = appendNames(kept, own), appendNames(want, fresh)
	}
}

// dead is what a borrowed name of n's length reads once its arena has
// been rewritten with next: next's bytes, or in race builds the poison
// retire leaves.
func dead(n int, next Name) Name {
	if poisonArenas {
		return Name(strings.Repeat(string(rune(poison)), n))
	}
	return next[:n]
}

// TestBorrowedNameIsAView pins what a borrowed name is: a view of the
// Message's arena, which reads the bytes of the next borrowed decode or
// SetQuestionName, or in race builds poison. A name kept after an owned
// decode or from a Clone is a string of its own and does not change.
func TestBorrowedNameIsAView(t *testing.T) {
	pack := func(name Name) []byte {
		wire, err := NewQuery(1, name, TypeA).Pack()
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	a, b := pack("aaaa.example."), pack("bbbb.example.")
	decode := func(m *Message, unpack func(*Message, []byte) error, wire []byte) Name {
		t.Helper()
		if err := unpack(m, wire); err != nil {
			t.Fatal(err)
		}
		return m.Questions[0].Name
	}

	m := &Message{}
	borrowed := decode(m, UnpackBorrowedInto, a)
	decode(m, UnpackBorrowedInto, b)
	if want := dead(len(borrowed), "bbbb.example."); borrowed != want {
		t.Fatalf("a borrowed name reads %q after the next decode, want %q: it was copied", borrowed, want)
	}
	clone := decode(m.Clone(), UnpackBorrowedInto, b)
	cloned := m.Clone().Questions[0].Name
	decode(m, UnpackInto, a)
	if cloned != "bbbb.example." || clone != "bbbb.example." {
		t.Fatalf("a clone's names read %q and %q, want bbbb.example.", cloned, clone)
	}
	// The owned decode found a borrowed name in place: it must not keep it.
	decode(m, UnpackBorrowedInto, a)
	ownDecoded := decode(m, UnpackInto, a)
	decode(m, UnpackBorrowedInto, b)
	if ownDecoded != "aaaa.example." {
		t.Fatalf("an owned decode after a borrowed one reads %q after the next, want aaaa.example.: it kept the borrowed name", ownDecoded)
	}

	// SetQuestionName's name is a view too.
	q := NewQuery(1, "x.", TypeA)
	q.SetQuestionName([]byte("cccc.example."))
	set := q.Questions[0].Name
	q.SetQuestionName([]byte("dddd.example."))
	if want := dead(len(set), "dddd.example."); set != want {
		t.Fatalf("SetQuestionName's name reads %q after the next, want %q: it was copied", set, want)
	}
}

// TestClonesOwnTheirNames: Clone, AppendClones and CloneRData copy every
// name, so a copy made of a borrowed decode still reads as it did once
// the next borrowed decode has rewritten the arena, owner names and the
// names in CNAME, NS, PTR, MX and SOA payloads alike.
func TestClonesOwnTheirNames(t *testing.T) {
	wire := func(a, b string) []byte {
		n := func(s string) Name { return MustParseName(s + ".clone.test.") }
		r := NewResponse(NewQuery(1, n(a), TypeA))
		for _, d := range []RData{&CNAMERData{Target: n(b + "c")}, &NSRData{Host: n(b + "n")}, &PTRRData{Target: n(b + "p")},
			&MXRData{Preference: 10, Host: n(b + "m")}, &SOARData{MName: n(b + "s"), RName: n(b + "r"), Minimum: 60}} {
			r.Answers = append(r.Answers, RR{Name: n(b), Class: ClassINET, TTL: 60, Data: d})
		}
		w, err := r.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	first, second := wire("aaaa", "bbbb"), wire("cccc", "dddd")
	want, err := Unpack(first)
	if err != nil {
		t.Fatal(err)
	}
	// The second message first, so the arena has the room the first
	// needs: its views are then all of the one array the next decode
	// rewrites, as in a Message that has warmed up.
	m := &Message{}
	for _, wire := range [][]byte{second, first} {
		if err := UnpackBorrowedInto(m, wire); err != nil {
			t.Fatal(err)
		}
	}
	clone, records := m.Clone(), AppendClones(nil, m.Answers)
	payloads := make([]RData, len(m.Answers))
	for i, rr := range m.Answers {
		payloads[i] = CloneRData(rr.Data)
	}
	if err := UnpackBorrowedInto(m, second); err != nil {
		t.Fatal(err)
	}
	if got, want := clone.String(), want.String(); got != want {
		t.Errorf("a clone reads\n%s after the next decode, want\n%s", got, want)
	}
	for i, rr := range want.Answers {
		if got := records[i].String(); got != rr.String() {
			t.Errorf("AppendClones' record %d reads %s after the next decode, want %s", i, got, rr)
		}
		if got := payloads[i].String(); got != rr.Data.String() {
			t.Errorf("CloneRData's payload %d reads %s after the next decode, want %s", i, got, rr.Data)
		}
	}
}

// TestAllocGateBorrowed counts what borrowing saves: a borrowed decode
// allocates no name, however new and however long, and SetQuestionName
// puts a new name in a reused query for nothing.
func TestAllocGateBorrowed(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 256
	names := make([][]byte, n)
	wires := make([][]byte, n)
	for i := range wires {
		names[i] = []byte("bulk" + strconv.Itoa(100000+i) + ".run1.allocation-gate.scan.test.")
		r := NewResponse(NewQuery(1, Name(names[i]), TypeA))
		r.Answers = append(r.Answers, RR{Name: Name(names[i]), Class: ClassINET, TTL: 30,
			Data: &CNAMERData{Target: Name("edge." + string(names[i]))}})
		r.EDNS = NewEDNS()
		var err error
		if wires[i], err = r.Pack(); err != nil {
			t.Fatal(err)
		}
	}
	m := &Message{}
	q := NewQuery(1, "x.", TypeA)
	next := 0
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"borrowed-fresh-names", func() {
			if err := UnpackBorrowedInto(m, wires[next%n]); err != nil {
				t.Fatal(err)
			}
		}},
		{"set-question-name", func() { q.SetQuestionName(names[next%n]) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for next = 0; next < n; next++ {
				tc.run()
			}
			if allocs := testing.AllocsPerRun(n-1, func() { next++; tc.run() }); allocs != 0 {
				t.Fatalf("%s allocates %.2f objects, want 0", tc.name, allocs)
			}
		})
	}
}
