// Package dnswire implements the DNS wire format: messages, resource
// records, name compression, and the EDNS0 extension mechanism (RFC 1035,
// RFC 6891). It is the substrate every other package in this module builds
// on: the recursive resolver, the authoritative server, the scanner and the
// passive-log tooling all exchange messages encoded and decoded here.
//
// The codec is allocation-conscious but favors clarity: messages are plain
// structs, resource data is a small interface with one concrete type per
// supported RR type, and unknown types round-trip as opaque bytes. A
// decode into a reused Message reuses its memory (UnpackInto), and a
// borrowed decode (UnpackBorrowedInto) makes no string for a name at
// all: each name is a view of bytes the Message keeps, valid until the
// next borrowed decode into it, and code that keeps a name past that
// copies it (Name.Clone; Message.Clone, AppendClones and CloneRData
// copy names too).
package dnswire

import "fmt"

// Type is a DNS resource record type (RFC 1035 §3.2.2 and successors).
type Type uint16

// Resource record types supported by this module.
const (
	TypeNone  Type = 0
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypePTR   Type = 12
	TypeMX    Type = 15
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	TypeOPT   Type = 41
	TypeANY   Type = 255
)

var typeNames = map[Type]string{
	TypeNone:  "NONE",
	TypeA:     "A",
	TypeNS:    "NS",
	TypeCNAME: "CNAME",
	TypeSOA:   "SOA",
	TypePTR:   "PTR",
	TypeMX:    "MX",
	TypeTXT:   "TXT",
	TypeAAAA:  "AAAA",
	TypeOPT:   "OPT",
	TypeANY:   "ANY",
}

// String returns the conventional mnemonic for t, or TYPEn for unknown types
// (RFC 3597 presentation style).
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("TYPE%d", uint16(t))
}

// Class is a DNS class. Only IN is used in practice.
type Class uint16

// DNS classes.
const (
	ClassINET Class = 1
	ClassANY  Class = 255
)

// String returns the class mnemonic.
func (c Class) String() string {
	switch c {
	case ClassINET:
		return "IN"
	case ClassANY:
		return "ANY"
	}
	return fmt.Sprintf("CLASS%d", uint16(c))
}

// OpCode is the DNS operation code from the message header.
type OpCode uint8

// Operation codes.
const (
	OpQuery  OpCode = 0
	OpStatus OpCode = 2
	OpNotify OpCode = 4
	OpUpdate OpCode = 5
)

// String returns the opcode mnemonic.
func (o OpCode) String() string {
	switch o {
	case OpQuery:
		return "QUERY"
	case OpStatus:
		return "STATUS"
	case OpNotify:
		return "NOTIFY"
	case OpUpdate:
		return "UPDATE"
	}
	return fmt.Sprintf("OPCODE%d", uint8(o))
}

// RCode is a DNS response code. Values above 15 require EDNS0 (the upper
// bits travel in the OPT record).
type RCode uint16

// Response codes.
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
	RCodeBadVers  RCode = 16
)

var rcodeNames = map[RCode]string{
	RCodeNoError:  "NOERROR",
	RCodeFormErr:  "FORMERR",
	RCodeServFail: "SERVFAIL",
	RCodeNXDomain: "NXDOMAIN",
	RCodeNotImp:   "NOTIMP",
	RCodeRefused:  "REFUSED",
	RCodeBadVers:  "BADVERS",
}

// String returns the rcode mnemonic.
func (r RCode) String() string {
	if s, ok := rcodeNames[r]; ok {
		return s
	}
	return fmt.Sprintf("RCODE%d", uint16(r))
}

// Wire-format size limits from RFC 1035.
const (
	// MaxUDPSize is the classic 512-byte UDP payload limit that applies
	// when no EDNS0 OPT record advertises a larger buffer.
	MaxUDPSize = 512
	// MaxNameLen is the maximum length of a domain name on the wire,
	// including length octets and the root label.
	MaxNameLen = 255
	// MaxLabelLen is the maximum length of a single label.
	MaxLabelLen = 63
	// MaxMessageSize is the hard ceiling for a DNS message (TCP length
	// prefix is 16 bits).
	MaxMessageSize = 65535
)
