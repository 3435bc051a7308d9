package dnswire

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Header is the parsed DNS message header (RFC 1035 §4.1.1) minus the
// section counts, which are derived from the slices in Message.
type Header struct {
	ID                 uint16
	Response           bool
	OpCode             OpCode
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	AuthenticData      bool
	CheckingDisabled   bool
	RCode              RCode // full extended rcode; upper bits go to EDNS
}

// Question is a single query in the question section.
type Question struct {
	Name  Name
	Type  Type
	Class Class
}

// String returns "name type class".
func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", q.Name, q.Class, q.Type)
}

// RR is a resource record in any of the answer, authority, or additional
// sections. OPT pseudo-records are not represented as RRs; they surface as
// Message.EDNS.
type RR struct {
	Name  Name
	Class Class
	TTL   uint32
	Data  RData
}

// Type returns the record type, taken from the typed payload.
func (rr RR) Type() Type {
	if rr.Data == nil {
		return TypeNone
	}
	return rr.Data.Type()
}

// String returns a zone-file-style one-line rendering.
func (rr RR) String() string {
	return fmt.Sprintf("%s %d %s %s %s", rr.Name, rr.TTL, rr.Class, rr.Type(), rr.Data)
}

// Message is a complete DNS message. The EDNS field, when non-nil, is
// serialized as an OPT pseudo-record in the additional section; decoded
// OPT records are lifted out of Additionals into EDNS.
type Message struct {
	Header
	Questions   []Question
	Answers     []RR
	Authorities []RR
	Additionals []RR
	EDNS        *EDNS

	// spareEDNS is the OPT record of the last decode into this Message
	// that carried one, kept through plain decodes for the next that does.
	spareEDNS *EDNS
}

// Question returns the first question, or a zero Question if none.
func (m *Message) Question() Question {
	if len(m.Questions) == 0 {
		return Question{}
	}
	return m.Questions[0]
}

// Pack encodes m into wire format with name compression.
func (m *Message) Pack() ([]byte, error) {
	return m.appendPack(make([]byte, 0, 512), true)
}

// PackNoCompress encodes m without name compression; it exists so
// BenchmarkPackCompression can quantify the savings.
func (m *Message) PackNoCompress() ([]byte, error) {
	return m.appendPack(make([]byte, 0, 512), false)
}

// AppendPack encodes m with name compression, appending the wire bytes
// to buf and returning the extended slice (which may have been
// reallocated, exactly like append). The encoded output is
// byte-identical to Pack: compression offsets are computed relative to
// the message start, so buf may already carry a prefix (a TCP length
// frame, earlier datagram payload). With a reused buffer of sufficient
// capacity the steady-state encode path performs zero allocations.
//
// The returned slice aliases buf's backing array; the caller owns it
// and must not hand it to a consumer that outlives the buffer's reuse
// cycle without copying.
func (m *Message) AppendPack(buf []byte) ([]byte, error) {
	return m.appendPack(buf, true)
}

var errTooManySections = errors.New("dnswire: section exceeds 65535 records")
var errMessageTooLong = errors.New("dnswire: message exceeds 65535 bytes")
var errNilRData = errors.New("dnswire: record with nil rdata")
var errRDataTooLong = errors.New("dnswire: rdata exceeds 65535 bytes")
var errTruncateSizeTooSmall = errors.New("dnswire: truncation size below header size")
var errTruncateHeaderTooBig = errors.New("dnswire: header alone exceeds truncation size")

func (m *Message) appendPack(buf []byte, compress bool) ([]byte, error) {
	b := acquireBuilder(buf)
	out, err := m.packInto(b, compress)
	releaseBuilder(b)
	return out, err
}

func (m *Message) packInto(b *builder, compress bool) ([]byte, error) {
	b.uint16(m.ID)
	flags1 := uint8(0)
	if m.Response {
		flags1 |= 0x80
	}
	flags1 |= uint8(m.OpCode&0xF) << 3
	if m.Authoritative {
		flags1 |= 0x04
	}
	if m.Truncated {
		flags1 |= 0x02
	}
	if m.RecursionDesired {
		flags1 |= 0x01
	}
	b.uint8(flags1)
	flags2 := uint8(m.RCode & 0xF)
	if m.RecursionAvailable {
		flags2 |= 0x80
	}
	if m.AuthenticData {
		flags2 |= 0x20
	}
	if m.CheckingDisabled {
		flags2 |= 0x10
	}
	b.uint8(flags2)

	nAdd := len(m.Additionals)
	if m.EDNS != nil {
		nAdd++
	}
	for _, n := range []int{len(m.Questions), len(m.Answers), len(m.Authorities), nAdd} {
		if n > 65535 {
			return nil, errTooManySections
		}
	}
	b.uint16(uint16(len(m.Questions)))
	b.uint16(uint16(len(m.Answers)))
	b.uint16(uint16(len(m.Authorities)))
	b.uint16(uint16(nAdd))

	for _, q := range m.Questions {
		b.nameOpt(q.Name, compress)
		b.uint16(uint16(q.Type))
		b.uint16(uint16(q.Class))
	}
	for _, sec := range [][]RR{m.Answers, m.Authorities, m.Additionals} {
		for _, rr := range sec {
			if err := packRR(b, rr, compress); err != nil {
				return nil, err
			}
		}
	}
	if m.EDNS != nil {
		m.EDNS.encode(b, m.RCode)
	}
	if b.msgLen() > MaxMessageSize {
		return nil, errMessageTooLong
	}
	return b.buf, nil
}

func packRR(b *builder, rr RR, compress bool) error {
	if rr.Data == nil {
		return errNilRData
	}
	b.nameOpt(rr.Name, compress)
	b.uint16(uint16(rr.Type()))
	b.uint16(uint16(rr.Class))
	b.uint32(rr.TTL)
	lenOff := len(b.buf)
	b.uint16(0) // rdlength placeholder
	rr.Data.encode(b)
	rdlen := len(b.buf) - lenOff - 2
	if rdlen > 65535 {
		return errRDataTooLong
	}
	b.buf[lenOff] = uint8(rdlen >> 8)
	b.buf[lenOff+1] = uint8(rdlen)
	return nil
}

// PeekID reads the transaction ID from a packed message without a full
// Unpack, for transports that must answer or demux on packets that may
// not parse past the header. ok is false when the packet is shorter
// than a DNS header.
func PeekID(wire []byte) (id uint16, ok bool) {
	if len(wire) < headerLen {
		return 0, false
	}
	return uint16(wire[0])<<8 | uint16(wire[1]), true
}

// PatchID rewrites the transaction ID of a packed message in place, so
// a transport can re-send one packed query under fresh IDs without
// re-packing. It reports whether the packet was long enough to patch.
func PatchID(wire []byte, id uint16) bool {
	if len(wire) < headerLen {
		return false
	}
	wire[0] = uint8(id >> 8)
	wire[1] = uint8(id)
	return true
}

// headerLen is the fixed DNS header size (RFC 1035 §4.1.1).
const headerLen = 12

// PeekHeader reads the transaction ID and the QR (response) bit from a
// packed message without a full Unpack, so a transport read loop can
// demux raw datagrams before paying for a parse. ok is false when the
// packet is shorter than a DNS header.
func PeekHeader(wire []byte) (id uint16, response bool, ok bool) {
	if len(wire) < headerLen {
		return 0, false, false
	}
	return uint16(wire[0])<<8 | uint16(wire[1]), wire[2]&0x80 != 0, true
}

// Decode errors shared by Unpack and UnpackInto.
var (
	errOPTOutsideAdditional = errors.New("dnswire: OPT record outside additional section")
	errDuplicateOPT         = errors.New("dnswire: duplicate OPT record")
)

// Unpack decodes a wire-format DNS message.
func Unpack(data []byte) (*Message, error) {
	m := &Message{}
	if err := UnpackInto(m, data); err != nil {
		return nil, err
	}
	return m, nil
}

// UnpackInto decodes a wire-format DNS message into m, reusing the
// memory a previous decode left behind: section slices are truncated
// and re-extended in place, rdata payloads of matching types are
// overwritten rather than reallocated, and name strings that decode to
// the same bytes keep the existing allocation. A decode keeps what it
// does not fill for the next one: an empty section keeps its array, and
// a message without an OPT record (EDNS nil) keeps the last one decoded
// aside. Decoding the same shapes of message into a reused Message, in
// any order, is therefore allocation-free — the property the scan
// pipeline's receive path and the server are built on.
//
// Unpack is UnpackInto on a zero Message; both decode identical wire
// input to the same contents, except that an empty section, option list
// or option payload may be an empty slice after UnpackInto where Unpack
// leaves it nil. On error m's contents are undefined. The caller owns m
// and everything it references; a subsequent UnpackInto on the same
// Message invalidates names, rdata, and option payloads from the
// previous decode.
func UnpackInto(m *Message, data []byte) error {
	st := unpackPool.Get().(*unpackState)
	err := unpackInto(m, data, st)
	unpackPool.Put(st)
	return err
}

func unpackInto(m *Message, data []byte, st *unpackState) error {
	// p never escapes the decode tree, so it stays on the stack.
	p := &parser{msg: data, st: st}
	id, err := p.uint16()
	if err != nil {
		return err
	}
	m.ID = id
	f1, err := p.uint8()
	if err != nil {
		return err
	}
	f2, err := p.uint8()
	if err != nil {
		return err
	}
	m.Response = f1&0x80 != 0
	m.OpCode = OpCode((f1 >> 3) & 0xF)
	m.Authoritative = f1&0x04 != 0
	m.Truncated = f1&0x02 != 0
	m.RecursionDesired = f1&0x01 != 0
	m.RecursionAvailable = f2&0x80 != 0
	m.AuthenticData = f2&0x20 != 0
	m.CheckingDisabled = f2&0x10 != 0
	m.RCode = RCode(f2 & 0xF)

	var counts [4]int
	for i := range counts {
		c, err := p.uint16()
		if err != nil {
			return err
		}
		counts[i] = int(c)
	}
	// Each question needs ≥5 bytes, each RR ≥11; a cheap bound that stops
	// count-based allocation bombs before any allocation happens.
	if counts[0]*5+(counts[1]+counts[2]+counts[3])*11 > p.remaining() {
		return ErrTooManyRRs
	}

	m.Questions = m.Questions[:0]
	for i := 0; i < counts[0]; i++ {
		var q *Question
		m.Questions, q = grow(m.Questions)
		n, err := p.name(q.Name)
		if err != nil {
			return err
		}
		t, err := p.uint16()
		if err != nil {
			return err
		}
		c, err := p.uint16()
		if err != nil {
			return err
		}
		q.Name, q.Type, q.Class = n, Type(t), Class(c)
	}
	if len(m.Questions) > 0 {
		p.qname = m.Questions[0].Name
	}

	// The OPT struct of the last decode that had one is the reuse
	// candidate for this decode's OPT record, and is kept when this one
	// has none; m.EDNS itself doubles as the duplicate-OPT sentinel.
	if m.EDNS != nil {
		m.spareEDNS = m.EDNS
	}
	m.EDNS = nil
	sections := [3]*[]RR{&m.Answers, &m.Authorities, &m.Additionals}
	for si, sec := range sections {
		*sec = (*sec)[:0]
		for i := 0; i < counts[si+1]; i++ {
			var slot *RR
			*sec, slot = grow(*sec)
			opt, err := unpackRRInto(p, slot, m.spareEDNS)
			if err != nil {
				return err
			}
			if opt != nil {
				*sec = (*sec)[:len(*sec)-1] // OPT records surface as m.EDNS, not as RRs
				if si != 2 {
					return errOPTOutsideAdditional
				}
				if m.EDNS != nil {
					return errDuplicateOPT
				}
				m.EDNS = opt
				m.RCode |= RCode(opt.extRCodeHi) << 4
			}
		}
	}
	if p.remaining() != 0 {
		return ErrTrailingBytes
	}
	return nil
}

// unpackRRInto decodes one resource record into slot, reusing the
// slot's previous contents where the bytes allow. An OPT pseudo-record
// is decoded into (and returned as) an EDNS instead — oldEDNS, when
// non-nil, is its reuse candidate — and slot is left untouched beyond
// scratch writes the caller discards.
func unpackRRInto(p *parser, slot *RR, oldEDNS *EDNS) (*EDNS, error) {
	n, err := p.name(slot.Name)
	if err != nil {
		return nil, err
	}
	t, err := p.uint16()
	if err != nil {
		return nil, err
	}
	cls, err := p.uint16()
	if err != nil {
		return nil, err
	}
	ttl, err := p.uint32()
	if err != nil {
		return nil, err
	}
	rdlen, err := p.uint16()
	if err != nil {
		return nil, err
	}
	if Type(t) == TypeOPT {
		return decodeEDNSInto(p, oldEDNS, n, cls, ttl, int(rdlen))
	}
	rd, err := decodeRData(p, Type(t), int(rdlen), slot.Data)
	if err != nil {
		return nil, err
	}
	slot.Name, slot.Class, slot.TTL, slot.Data = n, Class(cls), ttl, rd
	return nil, nil
}

// String renders the message in a dig-like multi-section format.
func (m *Message) String() string {
	var sb strings.Builder
	kind := "query"
	if m.Response {
		kind = "response"
	}
	fmt.Fprintf(&sb, ";; %s %s id=%d rcode=%s", m.OpCode, kind, m.ID, m.RCode)
	for _, f := range []struct {
		on   bool
		name string
	}{
		{m.Authoritative, "aa"}, {m.Truncated, "tc"},
		{m.RecursionDesired, "rd"}, {m.RecursionAvailable, "ra"},
	} {
		if f.on {
			sb.WriteString(" +" + f.name)
		}
	}
	sb.WriteByte('\n')
	for _, q := range m.Questions {
		fmt.Fprintf(&sb, ";%s\n", q)
	}
	for _, sec := range []struct {
		name string
		rrs  []RR
	}{
		{"ANSWER", m.Answers}, {"AUTHORITY", m.Authorities}, {"ADDITIONAL", m.Additionals},
	} {
		if len(sec.rrs) == 0 {
			continue
		}
		fmt.Fprintf(&sb, ";; %s\n", sec.name)
		for _, rr := range sec.rrs {
			sb.WriteString(rr.String())
			sb.WriteByte('\n')
		}
	}
	if m.EDNS != nil {
		fmt.Fprintf(&sb, ";; EDNS: version %d, udp %d, options %d\n",
			m.EDNS.Version, m.EDNS.UDPSize, len(m.EDNS.Options))
	}
	return sb.String()
}

// NewQuery builds a recursion-desired query for (name, type) with the
// given transaction ID.
func NewQuery(id uint16, name Name, t Type) *Message {
	return &Message{
		Header:    Header{ID: id, RecursionDesired: true},
		Questions: []Question{{Name: name, Type: t, Class: ClassINET}},
	}
}

// NewResponse builds a response skeleton for the query q, copying ID,
// opcode, question, and the RD flag.
func NewResponse(q *Message) *Message {
	r := &Message{
		Header: Header{
			ID:               q.ID,
			Response:         true,
			OpCode:           q.OpCode,
			RecursionDesired: q.RecursionDesired,
		},
	}
	r.Questions = append(r.Questions, q.Questions...)
	return r
}

// Clone returns a copy of m that shares no memory with it: sections,
// payloads (CloneRData) and option bytes are copied. A message handed to
// a goroutine that may outlive its owner's next use of m, such as a
// hedged exchange's losing attempt, must be a clone.
func (m *Message) Clone() *Message {
	c := &Message{
		Header:      m.Header,
		Questions:   slices.Clone(m.Questions),
		Answers:     AppendClones(nil, m.Answers),
		Authorities: AppendClones(nil, m.Authorities),
		Additionals: AppendClones(nil, m.Additionals),
	}
	if m.EDNS != nil {
		e := *m.EDNS
		e.Options = make([]Option, len(m.EDNS.Options))
		for i, o := range m.EDNS.Options {
			e.Options[i] = Option{Code: o.Code, Data: slices.Clone(o.Data)}
		}
		c.EDNS = &e
	}
	return c
}

// SetReply makes m the skeleton of the reply to q in m's own memory: the
// header and question NewResponse would give it, empty sections, and,
// when q carries an OPT record, an OPT of m's own (RFC 6891 §7) with a
// 4096-byte buffer and no options. The section slices and the EDNS
// struct m already holds are reused, as are its option slots beyond the
// new length, so a server refilling one reply query after query
// allocates nothing. The price is that records appended after a SetReply
// land in the arrays the last reply's sections used: a filler appends
// records to m's sections and never points them at slices it does not
// own (a cache's, a zone's), or the next reply writes over those.
func (m *Message) SetReply(q *Message) {
	m.Header = Header{
		ID:               q.ID,
		Response:         true,
		OpCode:           q.OpCode,
		RecursionDesired: q.RecursionDesired,
	}
	m.Questions = append(m.Questions[:0], q.Questions...)
	m.Answers, m.Authorities, m.Additionals = m.Answers[:0], m.Authorities[:0], m.Additionals[:0]
	switch {
	case q.EDNS == nil:
		m.EDNS = nil
	case m.EDNS == nil:
		m.EDNS = NewEDNS()
	default:
		*m.EDNS = EDNS{UDPSize: 4096, Options: m.EDNS.Options[:0]}
	}
}

// TruncateTo shrinks m to fit within size bytes when packed, dropping
// whole records from the tail sections and setting TC when anything was
// dropped. It returns the packed bytes.
func (m *Message) TruncateTo(size int) ([]byte, error) {
	return m.AppendTruncateTo(nil, size)
}

// AppendTruncateTo is TruncateTo appending the packed bytes onto buf —
// the allocation-free variant for send paths that own a reusable
// buffer. The returned slice aliases buf's backing array when it has
// the capacity.
func (m *Message) AppendTruncateTo(buf []byte, size int) ([]byte, error) {
	if size < 12 {
		return nil, errTruncateSizeTooSmall
	}
	base := len(buf)
	for {
		data, err := m.AppendPack(buf[:base])
		if err != nil {
			return nil, err
		}
		buf = data
		if len(data)-base <= size {
			return data, nil
		}
		m.Truncated = true
		switch {
		case len(m.Additionals) > 0:
			m.Additionals = m.Additionals[:len(m.Additionals)-1]
		case len(m.Authorities) > 0:
			m.Authorities = m.Authorities[:len(m.Authorities)-1]
		case len(m.Answers) > 0:
			m.Answers = m.Answers[:len(m.Answers)-1]
		default:
			m.EDNS = nil
			data, err := m.AppendPack(buf[:base])
			if err != nil {
				return nil, err
			}
			if len(data)-base > size {
				return nil, errTruncateHeaderTooBig
			}
			return data, nil
		}
	}
}
