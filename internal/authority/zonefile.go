package authority

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"

	"ecsdns/internal/dnswire"
)

// ParseZoneFile reads a zone in RFC 1035 master-file format (the subset
// real deployments use: $ORIGIN and $TTL directives, @ for the origin,
// names relative to the origin, per-record TTLs, comments, and the
// record types this module serves) and returns a populated Zone.
//
// Multi-line parentheses groups are supported for SOA records. Unknown
// record types are an error — silently dropping records from a zone file
// is how outages happen.
func ParseZoneFile(r io.Reader, defaultOrigin dnswire.Name) (*Zone, error) {
	p := &zoneParser{
		origin:     defaultOrigin,
		defaultTTL: 3600,
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	var pending string // accumulates a parentheses group
	for sc.Scan() {
		lineNo++
		line := stripComment(sc.Text())
		if pending != "" {
			pending += " " + line
			if !balancedParens(pending) {
				continue
			}
			line = pending
			pending = ""
		} else if !balancedParens(line) {
			pending = line
			continue
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		if err := p.parseLine(line); err != nil {
			return nil, fmt.Errorf("zonefile line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if pending != "" {
		return nil, fmt.Errorf("zonefile: unclosed parentheses group")
	}
	if p.zone == nil {
		return nil, fmt.Errorf("zonefile: no records")
	}
	return p.zone, nil
}

type zoneParser struct {
	origin     dnswire.Name
	defaultTTL uint32
	lastOwner  dnswire.Name
	zone       *Zone
}

func stripComment(line string) string {
	inQuote := false
	escaped := false
	for i := 0; i < len(line); i++ {
		if escaped {
			escaped = false
			continue
		}
		switch line[i] {
		case '\\':
			escaped = true
		case '"':
			inQuote = !inQuote
		case ';':
			if !inQuote {
				return line[:i]
			}
		}
	}
	return line
}

func balancedParens(s string) bool {
	depth := 0
	inQuote := false
	escaped := false
	for i := 0; i < len(s); i++ {
		if escaped {
			escaped = false
			continue
		}
		switch s[i] {
		case '\\':
			escaped = true
		case '"':
			inQuote = !inQuote
		case '(':
			if !inQuote {
				depth++
			}
		case ')':
			if !inQuote {
				depth--
			}
		}
	}
	return depth <= 0
}

func (p *zoneParser) parseLine(line string) error {
	fields, err := tokenize(line)
	if err != nil {
		return err
	}
	if len(fields) == 0 {
		return nil
	}
	switch strings.ToUpper(fields[0]) {
	case "$ORIGIN":
		if len(fields) != 2 {
			return fmt.Errorf("$ORIGIN wants one argument")
		}
		origin, err := dnswire.ParseName(fields[1])
		if err != nil {
			return err
		}
		p.origin = origin
		return nil
	case "$TTL":
		if len(fields) != 2 {
			return fmt.Errorf("$TTL wants one argument")
		}
		ttl, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return fmt.Errorf("bad $TTL %q", fields[1])
		}
		p.defaultTTL = uint32(ttl)
		return nil
	}

	// A record line: [owner] [ttl] [class] type rdata...
	owner := p.lastOwner
	i := 0
	if !strings.HasPrefix(line, " ") && !strings.HasPrefix(line, "\t") {
		var err error
		owner, err = p.resolveName(fields[0])
		if err != nil {
			return err
		}
		i = 1
	}
	if owner == "" {
		return fmt.Errorf("record with no owner and no previous owner")
	}
	p.lastOwner = owner

	ttl := p.defaultTTL
	if i < len(fields) {
		if v, err := strconv.ParseUint(fields[i], 10, 32); err == nil {
			ttl = uint32(v)
			i++
		}
	}
	if i < len(fields) && strings.EqualFold(fields[i], "IN") {
		i++
	}
	if i >= len(fields) {
		return fmt.Errorf("record without a type")
	}
	typ := strings.ToUpper(fields[i])
	rdata := fields[i+1:]

	if p.zone == nil {
		if p.origin == "" {
			return fmt.Errorf("no $ORIGIN and no default origin")
		}
		p.zone = NewZone(p.origin, p.defaultTTL)
	}
	rr := dnswire.RR{Name: owner, Class: dnswire.ClassINET, TTL: ttl}
	data, err := p.parseRData(typ, rdata)
	if err != nil {
		return err
	}
	if soa, ok := data.(*dnswire.SOARData); ok {
		p.zone.SOA = *soa
		return nil
	}
	rr.Data = data
	return p.zone.Add(rr)
}

func (p *zoneParser) resolveName(s string) (dnswire.Name, error) {
	if s == "@" {
		return p.origin, nil
	}
	if strings.HasSuffix(s, ".") {
		return dnswire.ParseName(s)
	}
	if p.origin == "" || p.origin == dnswire.Root {
		return dnswire.ParseName(s + ".")
	}
	return dnswire.ParseName(s + "." + string(p.origin))
}

func (p *zoneParser) parseRData(typ string, fields []string) (dnswire.RData, error) {
	need := func(n int) error {
		if len(fields) != n {
			return fmt.Errorf("%s wants %d field(s), got %d", typ, n, len(fields))
		}
		return nil
	}
	switch typ {
	case "A":
		if err := need(1); err != nil {
			return nil, err
		}
		addr, err := netip.ParseAddr(fields[0])
		if err != nil || !addr.Is4() {
			return nil, fmt.Errorf("bad A address %q", fields[0])
		}
		return &dnswire.ARData{Addr: addr}, nil
	case "AAAA":
		if err := need(1); err != nil {
			return nil, err
		}
		addr, err := netip.ParseAddr(fields[0])
		if err != nil || !addr.Is6() || addr.Is4In6() {
			return nil, fmt.Errorf("bad AAAA address %q", fields[0])
		}
		return &dnswire.AAAARData{Addr: addr}, nil
	case "CNAME":
		if err := need(1); err != nil {
			return nil, err
		}
		target, err := p.resolveName(fields[0])
		if err != nil {
			return nil, err
		}
		return &dnswire.CNAMERData{Target: target}, nil
	case "NS":
		if err := need(1); err != nil {
			return nil, err
		}
		host, err := p.resolveName(fields[0])
		if err != nil {
			return nil, err
		}
		return &dnswire.NSRData{Host: host}, nil
	case "PTR":
		if err := need(1); err != nil {
			return nil, err
		}
		target, err := p.resolveName(fields[0])
		if err != nil {
			return nil, err
		}
		return &dnswire.PTRRData{Target: target}, nil
	case "MX":
		if err := need(2); err != nil {
			return nil, err
		}
		pref, err := strconv.ParseUint(fields[0], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("bad MX preference %q", fields[0])
		}
		host, err := p.resolveName(fields[1])
		if err != nil {
			return nil, err
		}
		return &dnswire.MXRData{Preference: uint16(pref), Host: host}, nil
	case "TXT":
		if len(fields) == 0 {
			return nil, fmt.Errorf("TXT wants at least one string")
		}
		return &dnswire.TXTRData{Strings: fields}, nil
	case "SOA":
		if err := need(7); err != nil {
			return nil, err
		}
		mname, err := p.resolveName(fields[0])
		if err != nil {
			return nil, err
		}
		rname, err := p.resolveName(fields[1])
		if err != nil {
			return nil, err
		}
		var vals [5]uint32
		for i := 0; i < 5; i++ {
			v, err := strconv.ParseUint(fields[2+i], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("bad SOA field %q", fields[2+i])
			}
			vals[i] = uint32(v)
		}
		return &dnswire.SOARData{
			MName: mname, RName: rname,
			Serial: vals[0], Refresh: vals[1], Retry: vals[2],
			Expire: vals[3], Minimum: vals[4],
		}, nil
	}
	return nil, fmt.Errorf("unsupported record type %q", typ)
}

// tokenize splits a zone line on whitespace, honoring double quotes with
// RFC 1035 backslash escapes and dropping parentheses (the grouping has
// already been flattened).
func tokenize(line string) ([]string, error) {
	var out []string
	var cur strings.Builder
	inQuote := false
	escaped := false
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case escaped:
			cur.WriteByte(c)
			escaped = false
		case c == '\\':
			escaped = true
		case c == '"':
			if inQuote {
				out = append(out, cur.String()) // may be empty string
				cur.Reset()
			} else {
				flush()
			}
			inQuote = !inQuote
		case inQuote:
			cur.WriteByte(c)
		case c == ' ' || c == '\t':
			flush()
		case c == '(' || c == ')':
			flush()
		default:
			cur.WriteByte(c)
		}
	}
	if inQuote || escaped {
		return nil, fmt.Errorf("unterminated quoted string")
	}
	flush()
	return out, nil
}
