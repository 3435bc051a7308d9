package dnswire

import "errors"

// EDNS0 option codes this module knows about. The ECS payload itself is
// encoded and decoded by package ecsopt; at this layer it is opaque bytes.
const (
	OptionCodeECS    uint16 = 8
	OptionCodeCookie uint16 = 10
)

// Option is a single EDNS0 option TLV.
type Option struct {
	Code uint16
	Data []byte
}

// EDNS is the decoded form of the OPT pseudo-record (RFC 6891).
type EDNS struct {
	UDPSize uint16 // requestor's advertised UDP payload size
	Version uint8
	DO      bool // DNSSEC OK
	Options []Option

	extRCodeHi uint8 // upper 8 bits of the extended rcode, set on decode
}

// NewEDNS returns an OPT skeleton with the conventional 4096-byte buffer.
func NewEDNS() *EDNS { return &EDNS{UDPSize: 4096} }

// Option returns the first option with the given code and whether it was
// present.
func (e *EDNS) Option(code uint16) (Option, bool) {
	for _, o := range e.Options {
		if o.Code == code {
			return o, true
		}
	}
	return Option{}, false
}

// SetOption replaces any existing option with the same code, or appends.
func (e *EDNS) SetOption(o Option) {
	for i := range e.Options {
		if e.Options[i].Code == o.Code {
			e.Options[i] = o
			return
		}
	}
	e.Options = append(e.Options, o)
}

// RemoveOption deletes every option with the given code and reports
// whether any was removed.
func (e *EDNS) RemoveOption(code uint16) bool {
	out := e.Options[:0]
	removed := false
	for _, o := range e.Options {
		if o.Code == code {
			removed = true
			continue
		}
		out = append(out, o)
	}
	e.Options = out
	return removed
}

// encode appends the OPT pseudo-record. The message rcode supplies the
// extended rcode bits that live in the OPT TTL field.
func (e *EDNS) encode(b *builder, rcode RCode) {
	b.uint8(0) // root owner name, never compressed
	b.uint16(uint16(TypeOPT))
	b.uint16(e.UDPSize)
	ttl := uint32(rcode>>4)<<24 | uint32(e.Version)<<16
	if e.DO {
		ttl |= 1 << 15
	}
	b.uint32(ttl)
	lenOff := len(b.buf)
	b.uint16(0)
	for _, o := range e.Options {
		b.uint16(o.Code)
		b.uint16(uint16(len(o.Data)))
		b.bytes(o.Data)
	}
	rdlen := len(b.buf) - lenOff - 2
	b.buf[lenOff] = uint8(rdlen >> 8)
	b.buf[lenOff+1] = uint8(rdlen)
}

// decodeEDNSInto decodes an OPT pseudo-record. old, when non-nil, is the
// reuse candidate: its struct, Options slice, and per-option Data buffers
// are overwritten in place so repeated decodes into a reused Message stay
// allocation-free.
var errOPTNonRootOwner = errors.New("dnswire: OPT record with non-root owner")

func decodeEDNSInto(p *parser, old *EDNS, owner Name, cls uint16, ttl uint32, rdlen int) (*EDNS, error) {
	if owner != Root {
		return nil, errOPTNonRootOwner
	}
	e := old
	if e == nil {
		e = &EDNS{}
	}
	e.UDPSize = cls
	e.extRCodeHi = uint8(ttl >> 24)
	e.Version = uint8(ttl >> 16)
	e.DO = ttl&(1<<15) != 0
	end := p.off + rdlen
	if end > len(p.msg) {
		return nil, ErrShortMessage
	}
	opts := e.Options[:0]
	for p.off < end {
		code, err := p.uint16()
		if err != nil {
			return nil, err
		}
		olen, err := p.uint16()
		if err != nil {
			return nil, err
		}
		raw, err := p.bytes(int(olen))
		if err != nil {
			return nil, err
		}
		if p.off > end {
			return nil, ErrRDataLength
		}
		var slot *Option
		opts, slot = grow(opts)
		slot.Code = code
		slot.Data = append(slot.Data[:0], raw...)
		if len(slot.Data) == 0 {
			slot.Data = nil
		}
	}
	if p.off != end {
		return nil, ErrRDataLength
	}
	if len(opts) == 0 {
		opts = nil
	}
	e.Options = opts
	return e, nil
}
