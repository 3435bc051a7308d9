// Package ecsopt implements the EDNS0 Client Subnet option (RFC 7871):
// encoding, decoding, prefix arithmetic, validation, and the coverage test
// that drives scope-limited caching. It is deliberately strict where the
// RFC is strict (trailing address bits must be zero, scope must be zero in
// queries) and exposes lenient decoding separately, because the paper's
// whole subject is resolvers that get these details wrong.
package ecsopt

import (
	"errors"
	"fmt"
	"net/netip"
	"slices"

	"ecsdns/internal/dnswire"
)

// Family is the ECS address family (RFC 7871 uses the Address Family
// Numbers registry).
type Family uint16

// Address families.
const (
	FamilyNone Family = 0 // only valid with a zero source prefix
	FamilyIPv4 Family = 1
	FamilyIPv6 Family = 2
)

// String returns the family mnemonic.
func (f Family) String() string {
	switch f {
	case FamilyNone:
		return "none"
	case FamilyIPv4:
		return "IPv4"
	case FamilyIPv6:
		return "IPv6"
	}
	return fmt.Sprintf("family%d", uint16(f))
}

// MaxPrefix returns the address width in bits for the family (0 for
// FamilyNone).
func (f Family) MaxPrefix() int {
	switch f {
	case FamilyIPv4:
		return 32
	case FamilyIPv6:
		return 128
	}
	return 0
}

// RFC 7871 recommended maximum source prefix lengths for client privacy.
const (
	RecommendedMaxV4 = 24
	RecommendedMaxV6 = 56
)

// Decoding and validation errors.
var (
	ErrShortOption   = errors.New("ecsopt: option data too short")
	ErrBadFamily     = errors.New("ecsopt: unknown address family")
	ErrPrefixTooLong = errors.New("ecsopt: source prefix exceeds address width")
	ErrScopeTooLong  = errors.New("ecsopt: scope prefix exceeds address width")
	ErrAddressLength = errors.New("ecsopt: address length does not match source prefix")
	ErrTrailingBits  = errors.New("ecsopt: nonzero bits beyond source prefix")
	ErrScopeInQuery  = errors.New("ecsopt: nonzero scope prefix in query")
	ErrMissingFamily = errors.New("ecsopt: nonzero source prefix with family none")
)

// ClientSubnet is a decoded ECS option. Addr is always masked to
// SourcePrefix bits. In queries ScopePrefix must be zero; in responses it
// carries the authoritative answer's coverage.
type ClientSubnet struct {
	Family       Family
	SourcePrefix uint8
	ScopePrefix  uint8
	Addr         netip.Addr
}

// New builds a query-side ClientSubnet from an address and source prefix
// length, masking the address. The family is inferred from the address.
func New(addr netip.Addr, sourcePrefix int) (ClientSubnet, error) {
	fam := FamilyIPv4
	if addr.Is6() && !addr.Is4In6() {
		fam = FamilyIPv6
	}
	if sourcePrefix < 0 || sourcePrefix > fam.MaxPrefix() {
		return ClientSubnet{}, ErrPrefixTooLong
	}
	if addr.Is4In6() {
		addr = addr.Unmap()
	}
	masked, err := maskAddr(addr, sourcePrefix)
	if err != nil {
		return ClientSubnet{}, err
	}
	return ClientSubnet{
		Family:       fam,
		SourcePrefix: uint8(sourcePrefix),
		Addr:         masked,
	}, nil
}

// MustNew is New for static data; it panics on error.
func MustNew(addr netip.Addr, sourcePrefix int) ClientSubnet {
	cs, err := New(addr, sourcePrefix)
	if err != nil {
		panic("ecsopt: MustNew: " + err.Error())
	}
	return cs
}

// Zero returns the family-0 source-0 option a resolver sends to signal
// "no client information, and do not guess" (RFC 7871 §7.1.2).
func Zero() ClientSubnet {
	return ClientSubnet{Family: FamilyNone}
}

// IsZero reports whether cs carries no address information.
func (cs ClientSubnet) IsZero() bool {
	return cs.SourcePrefix == 0 && (cs.Family == FamilyNone || !cs.Addr.IsValid() || cs.Addr.IsUnspecified())
}

// WithScope returns a copy of cs with the scope prefix set (a response
// option).
func (cs ClientSubnet) WithScope(scope int) ClientSubnet {
	cs.ScopePrefix = uint8(scope)
	return cs
}

// Prefix returns the subnet as a netip.Prefix at the source prefix length.
// The zero option returns an invalid prefix.
func (cs ClientSubnet) Prefix() netip.Prefix {
	if !cs.Addr.IsValid() {
		return netip.Prefix{}
	}
	return netip.PrefixFrom(cs.Addr, int(cs.SourcePrefix))
}

// Covers reports whether addr falls inside the option's subnet at `bits`
// bits. bits=0 covers every address of the same family.
func (cs ClientSubnet) Covers(addr netip.Addr, bits int) bool {
	if addr.Is4In6() {
		addr = addr.Unmap()
	}
	switch cs.Family {
	case FamilyIPv4:
		if !addr.Is4() {
			return false
		}
	case FamilyIPv6:
		if !addr.Is6() || addr.Is4() {
			return false
		}
	default:
		return bits == 0
	}
	if bits == 0 {
		return true
	}
	p, err := cs.Addr.Prefix(bits)
	if err != nil {
		return false
	}
	return p.Contains(addr)
}

// String renders "addr/source/scope" ("none/0/0" for the zero option).
func (cs ClientSubnet) String() string {
	if cs.Family == FamilyNone || !cs.Addr.IsValid() {
		return fmt.Sprintf("none/%d/%d", cs.SourcePrefix, cs.ScopePrefix)
	}
	return fmt.Sprintf("%s/%d/%d", cs.Addr, cs.SourcePrefix, cs.ScopePrefix)
}

// Encode serializes cs into a dnswire EDNS0 option. The address field is
// truncated to the minimum number of octets that hold SourcePrefix bits,
// as the RFC requires.
func (cs ClientSubnet) Encode() dnswire.Option {
	nbytes := (int(cs.SourcePrefix) + 7) / 8
	return dnswire.Option{Code: dnswire.OptionCodeECS, Data: cs.appendData(make([]byte, 0, 4+nbytes))}
}

// appendData appends the option payload Encode builds to b.
func (cs ClientSubnet) appendData(b []byte) []byte {
	nbytes := (int(cs.SourcePrefix) + 7) / 8
	b = append(b, byte(cs.Family>>8), byte(cs.Family), cs.SourcePrefix, cs.ScopePrefix)
	addr := len(b)
	b = append(b, make([]byte, nbytes)...)
	switch {
	case !cs.Addr.IsValid():
	case cs.Addr.Is4():
		a := cs.Addr.As4()
		copy(b[addr:], a[:])
	default:
		a := cs.Addr.As16()
		copy(b[addr:], a[:])
	}
	return b
}

// Decode parses an ECS option strictly: family consistent with prefix
// lengths, exact address field length, zero trailing bits.
func Decode(opt dnswire.Option) (ClientSubnet, error) {
	return decode(opt, true)
}

// DecodeLenient parses an ECS option while tolerating the deviations the
// paper observes in the wild: nonzero trailing bits are masked off rather
// than rejected, and over-long address fields are truncated.
func DecodeLenient(opt dnswire.Option) (ClientSubnet, error) {
	return decode(opt, false)
}

func decode(opt dnswire.Option, strict bool) (ClientSubnet, error) {
	d := opt.Data
	if len(d) < 4 {
		return ClientSubnet{}, ErrShortOption
	}
	fam := Family(uint16(d[0])<<8 | uint16(d[1]))
	source := d[2]
	scope := d[3]
	addrBytes := d[4:]

	if fam == FamilyNone {
		if source != 0 {
			return ClientSubnet{}, ErrMissingFamily
		}
		return ClientSubnet{Family: FamilyNone, ScopePrefix: scope}, nil
	}
	if fam != FamilyIPv4 && fam != FamilyIPv6 {
		return ClientSubnet{}, ErrBadFamily
	}
	maxBits := fam.MaxPrefix()
	if int(source) > maxBits {
		return ClientSubnet{}, ErrPrefixTooLong
	}
	if int(scope) > maxBits {
		return ClientSubnet{}, ErrScopeTooLong
	}
	want := (int(source) + 7) / 8
	if strict && len(addrBytes) != want {
		return ClientSubnet{}, ErrAddressLength
	}
	if !strict && len(addrBytes) < want {
		return ClientSubnet{}, ErrAddressLength
	}

	var full [16]byte // on the stack: a decode allocates nothing
	copy(full[:], addrBytes[:min(len(addrBytes), maxBits/8)])
	addr := netip.AddrFrom16(full)
	if fam == FamilyIPv4 {
		addr = netip.AddrFrom4([4]byte(full[:4]))
	}
	masked, err := maskAddr(addr, int(source))
	if err != nil {
		return ClientSubnet{}, err
	}
	if strict && masked != addr {
		return ClientSubnet{}, ErrTrailingBits
	}
	return ClientSubnet{Family: fam, SourcePrefix: source, ScopePrefix: scope, Addr: masked}, nil
}

// FromMessage extracts and strictly decodes the ECS option from a
// message's EDNS block. The second return is false when no ECS option is
// present (which is not an error).
func FromMessage(m *dnswire.Message) (ClientSubnet, bool, error) {
	if m.EDNS == nil {
		return ClientSubnet{}, false, nil
	}
	opt, ok := m.EDNS.Option(dnswire.OptionCodeECS)
	if !ok {
		return ClientSubnet{}, false, nil
	}
	cs, err := Decode(opt)
	if err != nil {
		return ClientSubnet{}, true, err
	}
	return cs, true, nil
}

// Attach sets cs as the ECS option on m, creating the EDNS block if
// needed.
func Attach(m *dnswire.Message, cs ClientSubnet) {
	if m.EDNS == nil {
		m.EDNS = dnswire.NewEDNS()
	}
	m.EDNS.SetOption(cs.Encode())
}

// AttachInPlace is Attach for a reply refilled query after query (see
// dnswire.Message.SetReply): the option is encoded into the bytes of the
// ECS option m already carries, or of the option slot just past the end
// of m's options, which SetReply leaves holding the last reply's bytes.
// Once m has carried one option it allocates nothing. Those bytes are
// m's own: a caller must not have handed them out.
func AttachInPlace(m *dnswire.Message, cs ClientSubnet) {
	if m.EDNS == nil {
		m.EDNS = dnswire.NewEDNS()
	}
	opts := m.EDNS.Options
	i := slices.IndexFunc(opts, func(o dnswire.Option) bool { return o.Code == dnswire.OptionCodeECS })
	if i < 0 {
		i = len(opts)
		opts = slices.Grow(opts, 1)[:i+1]
	}
	opts[i].Code = dnswire.OptionCodeECS
	opts[i].Data = cs.appendData(opts[i].Data[:0])
	m.EDNS.Options = opts
}

// ValidateQuery enforces the query-side RFC rules on a decoded option:
// scope must be zero.
func ValidateQuery(cs ClientSubnet) error {
	if cs.ScopePrefix != 0 {
		return ErrScopeInQuery
	}
	return nil
}

// ClampScope applies the RFC 7871 rule that a response scope longer than
// the query's source prefix must not widen what the resolver caches: such
// responses are usable only for this query, which conservative resolvers
// implement by clamping scope to source.
func ClampScope(querySource, responseScope uint8) uint8 {
	if responseScope > querySource {
		return querySource
	}
	return responseScope
}

// IsRoutable reports whether the option's subnet is globally routable.
// Loopback, private (RFC 1918), link-local/self-assigned, and unspecified
// prefixes are the non-routable families the paper observes in the wild
// (§8.1).
func (cs ClientSubnet) IsRoutable() bool {
	if cs.Family == FamilyNone || !cs.Addr.IsValid() {
		return false
	}
	a := cs.Addr
	return !(a.IsLoopback() || a.IsPrivate() || a.IsLinkLocalUnicast() ||
		a.IsLinkLocalMulticast() || a.IsUnspecified() || a.IsMulticast())
}

// maskAddr zeroes every bit of addr beyond the first `bits` bits.
func maskAddr(addr netip.Addr, bits int) (netip.Addr, error) {
	p, err := addr.Prefix(bits)
	if err != nil {
		return netip.Addr{}, ErrPrefixTooLong
	}
	return p.Addr(), nil
}

// MaskAddr is the exported form of the prefix mask used throughout the
// experiments: it zeroes every bit of addr beyond `bits`.
func MaskAddr(addr netip.Addr, bits int) netip.Addr {
	if addr.Is4In6() {
		addr = addr.Unmap()
	}
	m, err := maskAddr(addr, bits)
	if err != nil {
		return addr
	}
	return m
}
