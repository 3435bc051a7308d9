// Package stub is the benchmark's own DNS stub: a query builder, a
// response checker, the seeded workload generators and the sample
// statistics. It imports only the standard library, so the end-to-end
// rows keep working whatever happens to the module's internal APIs.
package stub

import (
	"errors"
	"strings"
)

// Zone is the zone authdns serves by default; every query name is a
// single label under it.
const Zone = "scan.example.org"

// Answer is authdns's default wildcard A answer.
var Answer = [4]byte{192, 0, 2, 53}

// Item is one query a workload generates: an A question for Name asked
// on behalf of the client subnet Subnet/24.
type Item struct {
	Name   string  // fully qualified, no trailing dot, lower case
	Subnet [3]byte // the client /24 sent as ECS
}

const (
	typeA   = 1
	typeOPT = 41
	classIN = 1
	optECS  = 8
)

// AppendQuery appends the wire form of a query for q to buf: RD set, one
// question, one OPT record advertising 4096 bytes with a /24 IPv4 ECS
// option.
func AppendQuery(buf []byte, id uint16, q Item) []byte {
	buf = append(buf, byte(id>>8), byte(id), 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 1)
	buf = appendName(buf, q.Name)
	buf = append(buf, 0, typeA, 0, classIN)
	buf = append(buf, 0, 0, typeOPT, 0x10, 0x00, 0, 0, 0, 0, 0, 11)
	return append(buf, 0, optECS, 0, 7, 0, 1, 24, 0, q.Subnet[0], q.Subnet[1], q.Subnet[2])
}

func appendName(buf []byte, name string) []byte {
	for name != "" {
		label := name
		if i := strings.IndexByte(name, '.'); i >= 0 {
			label, name = name[:i], name[i+1:]
		} else {
			name = ""
		}
		buf = append(buf, byte(len(label)))
		buf = append(buf, label...)
	}
	return append(buf, 0)
}

// Validation failures, one per way a response can be wrong. A run counts
// each as a failed query.
var (
	ErrTruncated = errors.New("stub: packet truncated mid-field")
	ErrID        = errors.New("stub: response ID differs from query")
	ErrNotReply  = errors.New("stub: QR clear or TC set")
	ErrRCode     = errors.New("stub: RCODE is not NOERROR")
	ErrQuestion  = errors.New("stub: question section differs from query")
	ErrAnswer    = errors.New("stub: not exactly one A answer with the expected address")
	ErrNoECS     = errors.New("stub: no ECS option in response")
	ErrECSSubnet = errors.New("stub: ECS family, source length or address differs from query")
	ErrECSScope  = errors.New("stub: ECS scope differs from the workload's")
)

// Check validates resp as the answer to the query whose wire form is
// sent (as built by AppendQuery): same ID and question, NOERROR, one A
// answer equal to Answer, and an ECS option echoing the query's /24 with
// scope wantScope.
func Check(resp, sent []byte, wantScope uint8) error {
	if len(resp) < 12 {
		return ErrTruncated
	}
	if resp[0] != sent[0] || resp[1] != sent[1] {
		return ErrID
	}
	if resp[2]&0x80 == 0 || resp[2]&0x02 != 0 {
		return ErrNotReply
	}
	if resp[3]&0x0f != 0 {
		return ErrRCode
	}
	qlen := questionLen(sent)
	if be16(resp[4:]) != 1 {
		return ErrQuestion
	}
	if len(resp) < 12+qlen {
		return ErrTruncated
	}
	if string(resp[12:12+qlen]) != string(sent[12:12+qlen]) {
		return ErrQuestion
	}
	off := 12 + qlen
	an := be16(resp[6:])
	if an != 1 {
		return ErrAnswer
	}
	records := an + be16(resp[8:]) + be16(resp[10:])
	var ecs []byte
	extRCode := byte(0)
	for i := 0; i < records; i++ {
		var err error
		if off, err = skipName(resp, off); err != nil {
			return err
		}
		if off+10 > len(resp) {
			return ErrTruncated
		}
		typ, rdlen := be16(resp[off:]), be16(resp[off+8:])
		ttlHi := resp[off+4]
		off += 10
		if off+rdlen > len(resp) {
			return ErrTruncated
		}
		rdata := resp[off : off+rdlen]
		off += rdlen
		switch {
		case i == 0:
			if typ != typeA || rdlen != 4 || [4]byte(rdata) != Answer {
				return ErrAnswer
			}
		case typ == typeOPT:
			extRCode = ttlHi
			for len(rdata) >= 4 {
				code, n := be16(rdata), be16(rdata[2:])
				if 4+n > len(rdata) {
					return ErrTruncated
				}
				if code == optECS {
					ecs = rdata[4 : 4+n]
				}
				rdata = rdata[4+n:]
			}
		}
	}
	if extRCode != 0 {
		return ErrRCode
	}
	if ecs == nil {
		return ErrNoECS
	}
	// The query's ECS option data is its last 7 bytes; the echo must agree on
	// family, source length and address, and differ only in scope.
	want := sent[len(sent)-7:]
	if len(ecs) != 7 || string(ecs[:3]) != string(want[:3]) || string(ecs[4:]) != string(want[4:]) {
		return ErrECSSubnet
	}
	if ecs[3] != wantScope {
		return ErrECSScope
	}
	return nil
}

func be16(b []byte) int { return int(b[0])<<8 | int(b[1]) }

// questionLen is the length of the question section of a query built by
// AppendQuery: uncompressed name, type, class.
func questionLen(sent []byte) int {
	off := 12
	for sent[off] != 0 {
		off += 1 + int(sent[off])
	}
	return off + 1 + 4 - 12
}

// skipName steps over a possibly compressed name starting at off.
func skipName(msg []byte, off int) (int, error) {
	for {
		if off >= len(msg) {
			return 0, ErrTruncated
		}
		c := int(msg[off])
		switch {
		case c == 0:
			return off + 1, nil
		case c&0xc0 == 0xc0:
			if off+2 > len(msg) {
				return 0, ErrTruncated
			}
			return off + 2, nil
		default:
			off += 1 + c
		}
	}
}
