package resolver

import (
	"math/rand"
	"net/netip"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
)

// This file is the resolver's ECS decision, the behaviour the paper
// classifies resolvers by: whose subnet a query resolves for (§6.3),
// whether an upstream hop carries it (§6.1) and with how many bits
// (§6.2).

// randomECSFraction is the share of a ProbeRandom name's queries that
// carry ECS.
const randomECSFraction = 0.5

// client is who a query resolves for: the address its cache lookup is
// for and the source bits its lookup, its coalesced flight and its echo
// use, and whether the client's own ECS option gave them.
type client struct {
	addr    netip.Addr // invalid for a family-0 opt-out
	bits    int
	fromECS bool
}

// identity derives the client a query resolves for. A profile that
// accepts client ECS takes a valid option, cut to the family's ceiling;
// a source of 0 is the client opting out (RFC 7871 §7.1.2) and stays 0.
// Otherwise the sender is the client, as far as this resolver can tell
// (which is how hidden-resolver prefixes leak into ECS): an IPv4 client
// of a dual-stack listener arrives 4-in-6 and, unmapped, meets the IPv4
// policy. It takes no lock and allocates nothing: every hit runs it.
func identity(p Profile, from netip.Addr, query *dnswire.Message) client {
	if p.AcceptClientECS {
		if cs, present, err := ecsopt.FromMessage(query); present && err == nil {
			// The classes' ceilings are IPv4 observations; an IPv6 prefix
			// is capped by the IPv6 source policy.
			ceiling := p.MaxClientECSBits
			switch {
			case cs.Family == ecsopt.FamilyIPv6:
				ceiling = p.sourceBits(true)
			case ceiling == 0:
				ceiling = 24
			}
			bits := min(int(cs.SourcePrefix), ceiling)
			return client{addr: ecsopt.MaskAddr(cs.Addr, bits), bits: bits, fromECS: true}
		}
	}
	from = from.Unmap()
	return client{addr: from, bits: p.sourceBits(from.Is6())}
}

// sourceBits returns the configured source prefix for the family.
func (p *Profile) sourceBits(v6 bool) int {
	if v6 {
		if p.V6SourceBits == 0 {
			return 56
		}
		return p.V6SourceBits
	}
	if p.V4SourceBits == 0 {
		return 24
	}
	return p.V4SourceBits
}

// probeState is everything an ECS decision changes: the random source
// (which the hop's ID is drawn from first), the MixedV4Bits cursor, the
// per-authority ProbeInterval clock, the per-name ProbeRandom coins and
// the per-authority scopes AdaptSourceToScope learned. The resolver
// keeps it under its mutex.
type probeState struct {
	rng       *rand.Rand
	mixedIdx  int
	lastProbe map[netip.Addr]time.Time
	randNames map[dnswire.Name]bool
	adapted   map[netip.Addr]int
}

func newProbeState(seed int64) probeState {
	return probeState{
		rng:       rand.New(rand.NewSource(seed)),
		lastProbe: make(map[netip.Addr]time.Time),
		randNames: make(map[dnswire.Name]bool),
		adapted:   make(map[netip.Addr]int),
	}
}

// learn records that the authority at auth answered with a scope
// shorter than the source it was sent, so that an AdaptSourceToScope
// profile sends it no more bits than its shortest such scope.
func (st *probeState) learn(auth netip.Addr, scope int) {
	if cur, ok := st.adapted[auth]; !ok || scope < cur {
		st.adapted[auth] = scope
	}
}

// input is one upstream hop as the decision sees it.
type input struct {
	auth         netip.Addr
	zone         dnswire.Name
	q            dnswire.Question // the hop's question
	now          time.Time
	withinMinute bool // ProbeOnMiss: the name was asked less than a minute ago
	client       client
}

// decision is whether a hop carries ECS, and the option it carries.
type decision struct {
	attach bool
	opt    ecsopt.ClientSubnet
}

// decide applies the profile's probing strategy and prefix policy to
// one upstream hop. Nothing but A and AAAA queries carries ECS, nor a
// query to the root unless the profile violates that. It changes st as
// the strategy asks and reads nothing else, so the caller holds st's
// lock for the call. ProbeRandom draws its name's coin the first time it
// sees the name, and the 0.5 draw only for a name the coin chose.
func decide(p Profile, st *probeState, in input) decision {
	if in.zone == dnswire.Root && !p.SendECSToRoot {
		return decision{}
	}
	if in.q.Type != dnswire.TypeA && in.q.Type != dnswire.TypeAAAA {
		return decision{}
	}
	bits := in.client.bits
	switch p.Probing {
	case ProbeAlways:
		if learned, ok := st.adapted[in.auth]; ok && p.AdaptSourceToScope && learned < bits {
			bits = learned
		}
	case ProbeHostnames:
		if !p.isProbeName(in.q.Name) {
			return decision{}
		}
	case ProbeOnMiss:
		if in.withinMinute || !p.isProbeName(in.q.Name) {
			return decision{}
		}
	case ProbeInterval:
		// The probe string is checked before the slot is taken: a slot
		// taken for another name would hold it off for an interval.
		if len(p.ProbeNames) > 0 && in.q.Name != p.ProbeNames[0] {
			return decision{}
		}
		interval := p.Interval
		if interval == 0 {
			interval = 30 * time.Minute
		}
		if last, seen := st.lastProbe[in.auth]; seen && in.now.Sub(last) < interval {
			return decision{}
		}
		st.lastProbe[in.auth] = in.now
		if p.ProbeWithLoopback {
			return decision{attach: true, opt: ecsopt.MustNew(LoopbackAddr, 32)}
		}
	case ProbeRandom:
		chosen, ok := st.randNames[in.q.Name]
		if !ok {
			chosen = st.rng.Intn(2) == 0
			// A copy: the hop's name may be a view of the client's query.
			st.randNames[in.q.Name.Clone()] = chosen
		}
		if !chosen || st.rng.Float64() >= randomECSFraction {
			return decision{}
		}
	default:
		return decision{}
	}
	return decision{attach: true, opt: subnet(&p, st, in.client.addr, bits)}
}

// isProbeName reports whether name is in the profile's probe set (an
// empty set holds every name).
func (p *Profile) isProbeName(name dnswire.Name) bool {
	if len(p.ProbeNames) == 0 {
		return true
	}
	for _, n := range p.ProbeNames {
		if n == name {
			return true
		}
	}
	return false
}

// subnet builds the option carrying bits of addr under the profile's
// prefix policy: the private-prefix bug, the cycled IPv4 lengths and
// the jammed last byte. An address the option cannot carry, a family-0
// opt-out's among them, gives the family-0 option.
func subnet(p *Profile, st *probeState, addr netip.Addr, bits int) ecsopt.ClientSubnet {
	if p.PrivatePrefixBug {
		return ecsopt.MustNew(PrivateProbeAddr, 8)
	}
	jam := p.JamLastByte && addr.Is4()
	if len(p.MixedV4Bits) > 0 && addr.Is4() {
		bits = p.MixedV4Bits[st.mixedIdx%len(p.MixedV4Bits)]
		st.mixedIdx++
		jam = jam && bits == 32
	}
	if jam {
		a := ecsopt.MaskAddr(addr, 24).As4()
		a[3] = p.JamValue
		return ecsopt.MustNew(netip.AddrFrom4(a), 32)
	}
	cs, err := ecsopt.New(addr, bits)
	if err != nil || !addr.IsValid() {
		return ecsopt.Zero()
	}
	return cs
}
