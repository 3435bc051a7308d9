package dnswire

import (
	"encoding/binary"
	"errors"
	"strings"
	"sync"
	"unsafe"
)

// Wire decoding errors.
var (
	ErrShortMessage  = errors.New("dnswire: message truncated mid-field")
	ErrPointerLoop   = errors.New("dnswire: compression pointer loop")
	ErrBadPointer    = errors.New("dnswire: compression pointer out of range")
	ErrTrailingBytes = errors.New("dnswire: trailing bytes after message")
	ErrRDataLength   = errors.New("dnswire: rdata length mismatch")
	ErrTooManyRRs    = errors.New("dnswire: section count exceeds message size")

	errReservedLabel = errors.New("dnswire: reserved label type")
)

// builder accumulates an encoded message and tracks name-compression
// targets. Compression offsets are relative to base — the start of the
// message inside buf — so append-style packing behind an existing
// prefix (a TCP length frame, an earlier message) still emits valid
// pointers. Offsets must fit in 14 bits; names beyond that horizon are
// simply not registered.
//
// Targets are kept table-then-map: the first compressTableLen suffixes
// a message registers go into a fixed array searched linearly, and only
// a message with more distinct suffixes than that spills the rest into
// the map. A query or a typical answer registers a handful, so packing
// it hashes no string and clears no map; a zone-transfer-sized message
// pays the map from its 17th suffix on, as every message used to from
// its first. A suffix is registered once, on its first occurrence,
// whichever store takes it, so the bytes produced are those of a
// map-only packer (TestPackMatchesMapOnlyReference).
//
// Builders are pooled: the steady-state encode path performs no
// allocations beyond growing the caller's buffer.
type builder struct {
	buf   []byte
	base  int // offset of the message start within buf
	ntab  int // entries of table in use
	table [compressTableLen]compressTarget
	spill map[Name]int // suffix → offset, only for suffixes past the table
}

// compressTableLen is how many compression targets a builder keeps
// before it spills to the map: twice what the largest message of the
// scan and serving paths registers (question, owner, CNAME/NS targets).
const compressTableLen = 16

// compressTarget is the message-relative offset of a name suffix's
// first occurrence.
type compressTarget struct {
	suffix Name
	off    int
}

var builderPool = sync.Pool{
	New: func() any {
		return &builder{spill: make(map[Name]int)}
	},
}

// acquireBuilder checks a pooled builder out over the caller's buffer.
func acquireBuilder(buf []byte) *builder {
	b := builderPool.Get().(*builder)
	b.buf = buf
	b.base = len(buf)
	return b
}

// releaseBuilder returns b to the pool. The buffer and the registered
// suffixes are detached first so the pool never pins caller memory; the
// spill map keeps its buckets (cleared) so repeated packs of large
// messages stay allocation-free.
func releaseBuilder(b *builder) {
	b.buf = nil
	b.base = 0
	clear(b.table[:b.ntab])
	b.ntab = 0
	if len(b.spill) > 0 { // most messages never spill: skip even the call
		clear(b.spill)
	}
	builderPool.Put(b)
}

// lookup returns the offset suffix was registered at.
func (b *builder) lookup(suffix Name) (int, bool) {
	for i := range b.table[:b.ntab] {
		if b.table[i].suffix == suffix {
			return b.table[i].off, true
		}
	}
	if len(b.spill) > 0 { // most messages never spill: skip even the call
		off, ok := b.spill[suffix]
		return off, ok
	}
	return 0, false
}

// register records off as the compression target for suffix, which
// lookup has just missed.
func (b *builder) register(suffix Name, off int) {
	if b.ntab < len(b.table) {
		b.table[b.ntab] = compressTarget{suffix, off}
		b.ntab++
		return
	}
	b.spill[suffix] = off
}

func (b *builder) uint8(v uint8)   { b.buf = append(b.buf, v) }
func (b *builder) uint16(v uint16) { b.buf = binary.BigEndian.AppendUint16(b.buf, v) }
func (b *builder) uint32(v uint32) { b.buf = binary.BigEndian.AppendUint32(b.buf, v) }
func (b *builder) bytes(p []byte)  { b.buf = append(b.buf, p...) }

// msgLen is the length of the message packed so far (excluding any
// caller prefix before base).
func (b *builder) msgLen() int { return len(b.buf) - b.base }

// name encodes n with compression against previously written names.
func (b *builder) name(n Name) {
	b.nameOpt(n, true)
}

// nameOpt encodes n, compressing against earlier names when compress is
// true. OPT owner names and rdata of types where compression is forbidden
// use compress=false.
func (b *builder) nameOpt(n Name, compress bool) {
	if n == Root || n == "" {
		b.uint8(0)
		return
	}
	rest := n
	for rest != Root && rest != "" {
		if compress {
			if off, ok := b.lookup(rest); ok {
				b.uint16(0xC000 | uint16(off))
				return
			}
			if off := b.msgLen(); off < 0x4000 {
				b.register(rest, off)
			}
		}
		// One search for the dot gives the label and the parent name.
		label, parent := string(rest), Root
		if i := strings.IndexByte(label, '.'); i >= 0 {
			label = label[:i]
			if i < len(rest)-1 {
				parent = rest[i+1:]
			}
		}
		b.uint8(uint8(len(label)))
		b.buf = append(b.buf, label...)
		rest = parent
	}
	b.uint8(0)
}

// unpackState is the per-decode scratch: a reused byte buffer names are
// decoded into before they are compared against (and, when unchanged,
// replaced by) the strings already present in a reused Message. States
// are pooled so the steady-state decode path allocates nothing.
type unpackState struct {
	scratch []byte
}

var unpackPool = sync.Pool{
	New: func() any {
		return &unpackState{scratch: make([]byte, 0, MaxNameLen)}
	},
}

// parser walks an encoded message.
type parser struct {
	msg []byte
	off int
	st  *unpackState
	// names, in a borrowed decode, is the Message's name arena: each name
	// is decoded onto its end and returned as a view of it. It is nil in
	// an owned decode, which decodes into st's scratch.
	names *[]byte
	// reuse says the names an owned decode overwrites may be kept when
	// the bytes match; it is false once the Message has borrowed names,
	// which may be views of bytes since rewritten.
	reuse bool
	// qname is the message's first question name once decoded: most
	// records of an answer are owned by it, and share its string.
	qname Name
}

func (p *parser) remaining() int { return len(p.msg) - p.off }

func (p *parser) uint8() (uint8, error) {
	if p.remaining() < 1 {
		return 0, ErrShortMessage
	}
	v := p.msg[p.off]
	p.off++
	return v, nil
}

func (p *parser) uint16() (uint16, error) {
	if p.remaining() < 2 {
		return 0, ErrShortMessage
	}
	v := binary.BigEndian.Uint16(p.msg[p.off:])
	p.off += 2
	return v, nil
}

func (p *parser) uint32() (uint32, error) {
	if p.remaining() < 4 {
		return 0, ErrShortMessage
	}
	v := binary.BigEndian.Uint32(p.msg[p.off:])
	p.off += 4
	return v, nil
}

func (p *parser) bytes(n int) ([]byte, error) {
	if n < 0 || p.remaining() < n {
		return nil, ErrShortMessage
	}
	v := p.msg[p.off : p.off+n]
	p.off += n
	return v, nil
}

// name decodes a possibly-compressed domain name starting at the current
// offset, advancing past it (pointers are followed without moving the
// cursor beyond the pointer itself). A name equal to the first
// question's is that question's string, so a fresh name costs one string
// however many records repeat it.
//
// A borrowed decode appends the name to the Message's arena and returns
// a view of it, which costs no allocation at all. An owned decode makes
// a string, unless old, the reuse candidate, has the same bytes: then
// the existing string is returned and nothing is allocated, the path
// that keeps repeated decodes into a reused Message allocation-free.
func (p *parser) name(old Name) (Name, error) {
	// A pointer to offset 12, where the first question's name starts, is
	// that name, decoded and checked already: the owner of every record a
	// compressed answer gives the question's name.
	if p.qname != "" && p.remaining() >= 2 && p.msg[p.off] == 0xC0 && p.msg[p.off+1] == headerLen {
		p.off += 2
		return p.qname, nil
	}
	if p.names != nil {
		return p.borrowedName()
	}
	scratch, next, err := appendNameAt(p.st.scratch[:0], p.msg, p.off)
	p.st.scratch = scratch[:0]
	if err != nil {
		return "", err
	}
	p.off = next
	// Comparisons, not a switch on string(scratch): the switch converts
	// its operand into a 32-byte buffer on the stack, and a longer name
	// allocates even when it matches.
	if p.reuse && string(scratch) == string(old) {
		return old, nil
	}
	if string(scratch) == string(p.qname) {
		return p.qname, nil
	}
	return Name(scratch), nil
}

// borrowedName is name in a borrowed decode: the name's bytes stay on
// the arena as the name's view, unless they are the first question's.
func (p *parser) borrowedName() (Name, error) {
	start := len(*p.names)
	names, next, err := appendNameAt(*p.names, p.msg, p.off)
	*p.names = names
	if err != nil {
		return "", err
	}
	p.off = next
	if string(names[start:]) == string(p.qname) {
		*p.names = names[:start]
		return p.qname, nil
	}
	return view(names[start:]), nil
}

// view returns b as a Name without copying it: the name reads whatever b
// holds, so it is valid only as long as b's bytes are not written again.
// It is the package's one use of unsafe; a Message's name arena, which
// each borrowed decode and SetQuestionName rewrite, is all it views.
func view(b []byte) Name {
	return Name(unsafe.String(unsafe.SliceData(b), len(b)))
}

// appendNameAt decodes the name at offset off in msg into dst in
// canonical presentation form (lower-cased, trailing dot; the root is
// "."), returning the extended buffer and the offset of the first byte
// after the name's in-place encoding.
func appendNameAt(dst []byte, msg []byte, off int) ([]byte, int, error) {
	mark := len(dst)
	next := -1 // offset after the name at the original position
	ptrBudget := 127
	totalLen := 1
	for {
		if off >= len(msg) {
			return dst, 0, ErrShortMessage
		}
		c := msg[off]
		switch {
		case c == 0:
			if next < 0 {
				next = off + 1
			}
			if len(dst) == mark {
				dst = append(dst, '.') // root
			}
			return dst, next, nil
		case c&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return dst, 0, ErrShortMessage
			}
			target := int(binary.BigEndian.Uint16(msg[off:]) & 0x3FFF)
			if next < 0 {
				next = off + 2
			}
			if target >= off {
				// Forward (or self) pointers are invalid and a
				// common loop vector; reject them outright.
				return dst, 0, ErrBadPointer
			}
			ptrBudget--
			if ptrBudget <= 0 {
				return dst, 0, ErrPointerLoop
			}
			off = target
		case c&0xC0 != 0:
			return dst, 0, errReservedLabel
		default:
			l := int(c)
			if off+1+l > len(msg) {
				return dst, 0, ErrShortMessage
			}
			totalLen += l + 1
			if totalLen > MaxNameLen {
				return dst, 0, ErrNameTooLong
			}
			// Enforce the same label charset as ParseName: a '.' inside a
			// wire label would be indistinguishable from a separator in the
			// presentation form (so the name would re-encode as different
			// labels), and whitespace/control bytes are excluded to match.
			// The label is copied whole, then checked and folded in place.
			dst = append(dst, msg[off+1:off+1+l]...)
			label := dst[len(dst)-l:]
			for i, ch := range label {
				if ch == '.' || ch <= ' ' || ch == 127 {
					return dst, 0, ErrBadLabelChar
				}
				if ch >= 'A' && ch <= 'Z' {
					label[i] = ch + 'a' - 'A'
				}
			}
			dst = append(dst, '.')
			off += 1 + l
		}
	}
}

// grow extends s by one element. When spare capacity exists the slot is
// revealed with its previous contents intact — the reuse window that
// lets UnpackInto compare newly decoded data against what a recycled
// Message already holds.
func grow[T any](s []T) ([]T, *T) {
	if len(s) < cap(s) {
		s = s[:len(s)+1]
	} else {
		var zero T
		s = append(s, zero)
	}
	return s, &s[len(s)-1]
}
