package dnswire

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
)

// RData is the typed payload of a resource record. Concrete types exist
// for every record type this module serves; anything else round-trips as
// UnknownRData.
type RData interface {
	// Type returns the RR type this payload belongs to.
	Type() Type
	// encode appends the rdata (without the length prefix) to b.
	encode(b *builder)
	// String returns the presentation form of the rdata.
	String() string
}

// ARData is an IPv4 address record payload.
type ARData struct{ Addr netip.Addr }

// Type implements RData.
func (ARData) Type() Type { return TypeA }

func (r ARData) encode(b *builder) {
	a := r.Addr.As4()
	b.bytes(a[:])
}

func (r ARData) String() string { return r.Addr.String() }

// AAAARData is an IPv6 address record payload.
type AAAARData struct{ Addr netip.Addr }

// Type implements RData.
func (AAAARData) Type() Type { return TypeAAAA }

func (r AAAARData) encode(b *builder) {
	a := r.Addr.As16()
	b.bytes(a[:])
}

func (r AAAARData) String() string { return r.Addr.String() }

// CNAMERData is an alias record payload.
type CNAMERData struct{ Target Name }

// Type implements RData.
func (CNAMERData) Type() Type { return TypeCNAME }

func (r CNAMERData) encode(b *builder) { b.name(r.Target) }
func (r CNAMERData) String() string    { return string(r.Target) }

// NSRData is a delegation record payload.
type NSRData struct{ Host Name }

// Type implements RData.
func (NSRData) Type() Type { return TypeNS }

func (r NSRData) encode(b *builder) { b.name(r.Host) }
func (r NSRData) String() string    { return string(r.Host) }

// PTRRData is a pointer record payload.
type PTRRData struct{ Target Name }

// Type implements RData.
func (PTRRData) Type() Type { return TypePTR }

func (r PTRRData) encode(b *builder) { b.name(r.Target) }
func (r PTRRData) String() string    { return string(r.Target) }

// MXRData is a mail-exchange record payload.
type MXRData struct {
	Preference uint16
	Host       Name
}

// Type implements RData.
func (MXRData) Type() Type { return TypeMX }

func (r MXRData) encode(b *builder) {
	b.uint16(r.Preference)
	b.name(r.Host)
}

func (r MXRData) String() string { return fmt.Sprintf("%d %s", r.Preference, r.Host) }

// TXTRData is a text record payload: one or more character-strings.
type TXTRData struct{ Strings []string }

// Type implements RData.
func (TXTRData) Type() Type { return TypeTXT }

func (r TXTRData) encode(b *builder) {
	for _, s := range r.Strings {
		if len(s) > 255 {
			s = s[:255]
		}
		b.uint8(uint8(len(s)))
		b.bytes([]byte(s))
	}
}

func (r TXTRData) String() string {
	parts := make([]string, len(r.Strings))
	for i, s := range r.Strings {
		parts[i] = fmt.Sprintf("%q", s)
	}
	return strings.Join(parts, " ")
}

// SOARData is a start-of-authority record payload.
type SOARData struct {
	MName   Name
	RName   Name
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

// Type implements RData.
func (SOARData) Type() Type { return TypeSOA }

func (r SOARData) encode(b *builder) {
	b.name(r.MName)
	b.name(r.RName)
	b.uint32(r.Serial)
	b.uint32(r.Refresh)
	b.uint32(r.Retry)
	b.uint32(r.Expire)
	b.uint32(r.Minimum)
}

func (r SOARData) String() string {
	return fmt.Sprintf("%s %s %d %d %d %d %d",
		r.MName, r.RName, r.Serial, r.Refresh, r.Retry, r.Expire, r.Minimum)
}

// UnknownRData carries the raw rdata of a record type the codec does not
// model. It round-trips byte-for-byte (RFC 3597 behavior).
type UnknownRData struct {
	T   Type
	Raw []byte
}

// Type implements RData.
func (r UnknownRData) Type() Type { return r.T }

func (r UnknownRData) encode(b *builder) { b.bytes(r.Raw) }

func (r UnknownRData) String() string {
	return fmt.Sprintf("\\# %d %x", len(r.Raw), r.Raw)
}

// CloneRData returns a payload equal to d that shares no memory with
// it. A decoder reusing a Message overwrites the payloads it decoded
// before (see decodeRData), so a record that outlives the next decode
// into its Message, such as one a cache keeps, must hold a clone. A
// payload stored by value is returned as it is: nothing can write to it.
func CloneRData(d RData) RData {
	switch x := d.(type) {
	case *ARData:
		c := *x
		return &c
	case *AAAARData:
		c := *x
		return &c
	case *CNAMERData:
		c := *x
		return &c
	case *NSRData:
		c := *x
		return &c
	case *PTRRData:
		c := *x
		return &c
	case *MXRData:
		c := *x
		return &c
	case *SOARData:
		c := *x
		return &c
	case *TXTRData:
		return &TXTRData{Strings: slices.Clone(x.Strings)}
	case *UnknownRData:
		return &UnknownRData{T: x.T, Raw: slices.Clone(x.Raw)}
	}
	return d
}

// AppendClones appends to dst a copy of each record in rrs, its payload
// cloned (CloneRData), and returns the extended slice.
func AppendClones(dst, rrs []RR) []RR {
	for _, rr := range rrs {
		rr.Data = CloneRData(rr.Data)
		dst = append(dst, rr)
	}
	return dst
}

// decodeRData decodes rdlen bytes of rdata of the given type. The parser is
// positioned at the start of the rdata; name-bearing types may follow
// compression pointers anywhere earlier in the message.
//
// old is the reuse candidate from the record slot being overwritten:
// when it holds a payload of the same concrete type, that payload is
// mutated in place (strings and byte slices reusing their existing
// allocations where the bytes allow) and returned, keeping repeated
// decodes into a reused Message allocation-free. Decoded payloads are
// always pointers (*ARData, *TXTRData, ...) for exactly this reason — a
// value stored in an RData interface could never be reused without a
// fresh box allocation.
func decodeRData(p *parser, t Type, rdlen int, old RData) (RData, error) {
	end := p.off + rdlen
	if end > len(p.msg) {
		return nil, ErrShortMessage
	}
	var rd RData
	switch t {
	case TypeA:
		raw, err := p.bytes(4)
		if err != nil {
			return nil, err
		}
		r, ok := old.(*ARData)
		if !ok {
			r = &ARData{}
		}
		r.Addr = netip.AddrFrom4([4]byte(raw))
		rd = r
	case TypeAAAA:
		raw, err := p.bytes(16)
		if err != nil {
			return nil, err
		}
		r, ok := old.(*AAAARData)
		if !ok {
			r = &AAAARData{}
		}
		r.Addr = netip.AddrFrom16([16]byte(raw))
		rd = r
	case TypeCNAME:
		r, ok := old.(*CNAMERData)
		if !ok {
			r = &CNAMERData{}
		}
		n, err := p.name(r.Target)
		if err != nil {
			return nil, err
		}
		r.Target = n
		rd = r
	case TypeNS:
		r, ok := old.(*NSRData)
		if !ok {
			r = &NSRData{}
		}
		n, err := p.name(r.Host)
		if err != nil {
			return nil, err
		}
		r.Host = n
		rd = r
	case TypePTR:
		r, ok := old.(*PTRRData)
		if !ok {
			r = &PTRRData{}
		}
		n, err := p.name(r.Target)
		if err != nil {
			return nil, err
		}
		r.Target = n
		rd = r
	case TypeMX:
		r, ok := old.(*MXRData)
		if !ok {
			r = &MXRData{}
		}
		pref, err := p.uint16()
		if err != nil {
			return nil, err
		}
		n, err := p.name(r.Host)
		if err != nil {
			return nil, err
		}
		r.Preference, r.Host = pref, n
		rd = r
	case TypeTXT:
		r, ok := old.(*TXTRData)
		if !ok {
			r = &TXTRData{}
		}
		ss := r.Strings[:0]
		for p.off < end {
			l, err := p.uint8()
			if err != nil {
				return nil, err
			}
			raw, err := p.bytes(int(l))
			if err != nil {
				return nil, err
			}
			if p.off > end {
				return nil, ErrRDataLength
			}
			var slot *string
			ss, slot = grow(ss)
			if *slot != string(raw) {
				*slot = string(raw)
			}
		}
		if len(ss) == 0 {
			ss = nil
		}
		r.Strings = ss
		rd = r
	case TypeSOA:
		r, ok := old.(*SOARData)
		if !ok {
			r = &SOARData{}
		}
		mname, err := p.name(r.MName)
		if err != nil {
			return nil, err
		}
		rname, err := p.name(r.RName)
		if err != nil {
			return nil, err
		}
		var vals [5]uint32
		for i := range vals {
			v, err := p.uint32()
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		r.MName, r.RName = mname, rname
		r.Serial, r.Refresh, r.Retry = vals[0], vals[1], vals[2]
		r.Expire, r.Minimum = vals[3], vals[4]
		rd = r
	default:
		raw, err := p.bytes(rdlen)
		if err != nil {
			return nil, err
		}
		r, ok := old.(*UnknownRData)
		if !ok {
			r = &UnknownRData{}
		}
		r.T = t
		r.Raw = append(r.Raw[:0], raw...)
		if len(r.Raw) == 0 {
			r.Raw = nil
		}
		rd = r
	}
	if p.off != end {
		return nil, ErrRDataLength
	}
	return rd, nil
}
