package resolver

import (
	"net/netip"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecscache"
)

// ProbeStrategy is how a resolver decides whether to attach an ECS option
// to a given upstream query. The five concrete strategies are the four
// behavior patterns of §6.1 of the paper plus a random mix standing in
// for the 387 resolvers whose pattern the authors could not discern.
type ProbeStrategy int

// Probing strategies.
const (
	// ProbeNever sends no ECS at all (a non-ECS resolver).
	ProbeNever ProbeStrategy = iota
	// ProbeAlways sends ECS on every A/AAAA query to every authority —
	// either a per-authority whitelist that happens to include the
	// target, or indiscriminate sending (3382 of 4147 resolvers).
	ProbeAlways
	// ProbeHostnames sends ECS consistently but only for specific
	// hostnames, and disables caching for them, re-querying within TTL
	// (258 resolvers).
	ProbeHostnames
	// ProbeInterval sends an ECS probe for a single query string at
	// multiples of Interval (30 minutes in the wild) and plain queries
	// otherwise (32 resolvers). The probes carry the loopback address.
	ProbeInterval
	// ProbeOnMiss sends ECS for specific hostnames but only on a cache
	// miss, never within a short window of the previous query for the
	// same name (88 resolvers).
	ProbeOnMiss
	// ProbeRandom sends ECS for a random subset of hostnames and a
	// random subset of queries for those hostnames — the unclassified
	// remainder (387 resolvers).
	ProbeRandom
)

// String returns the strategy mnemonic.
func (p ProbeStrategy) String() string {
	switch p {
	case ProbeNever:
		return "never"
	case ProbeAlways:
		return "always"
	case ProbeHostnames:
		return "hostnames"
	case ProbeInterval:
		return "interval"
	case ProbeOnMiss:
		return "on-miss"
	case ProbeRandom:
		return "random"
	}
	return "unknown"
}

// Profile captures every ECS-relevant behavior knob of a recursive
// resolver, compliant or deviant. The zero value is a non-ECS resolver
// with a correct classic cache.
type Profile struct {
	// Probing selects when ECS is attached upstream.
	Probing ProbeStrategy
	// ProbeNames are the hostnames ProbeHostnames/ProbeOnMiss apply to;
	// ProbeInterval uses ProbeNames[0] as its single query string. When
	// empty, the resolver treats every name as a probe name.
	ProbeNames []dnswire.Name
	// Interval is the ProbeInterval period (the wild shows multiples of
	// 30 minutes).
	Interval time.Duration
	// ProbeWithLoopback makes interval probes carry 127.0.0.1/32
	// instead of real client data.
	ProbeWithLoopback bool

	// V4SourceBits and V6SourceBits are the source prefix lengths for
	// client-derived ECS (RFC recommends ≤24 and ≤56).
	V4SourceBits int
	V6SourceBits int
	// MixedV4Bits, when non-empty, cycles the IPv4 source prefix length
	// across queries — the 82 resolvers the CDN dataset shows sending
	// multiple lengths. JamLastByte applies to the 32-bit entries.
	MixedV4Bits []int
	// JamLastByte sends /32 (IPv4) with the last byte forced to
	// JamValue — the dominant-AS behavior that claims 32 bits while
	// effectively revealing 24.
	JamLastByte bool
	JamValue    byte
	// PrivatePrefixBug sends a 10.0.0.0/8 prefix regardless of the
	// client (the misconfigured resolver of §6.3).
	PrivatePrefixBug bool

	// AcceptClientECS trusts an ECS option arriving in client queries
	// instead of deriving one from the sender address. When false the
	// resolver overrides any incoming option with the sender-derived
	// prefix (the major public service's anti-spoofing behavior).
	AcceptClientECS bool
	// MaxClientECSBits truncates accepted IPv4 client ECS prefixes; 24
	// is the compliant ceiling, 32 accepts anything (15 resolvers), 22 is
	// the capping group (8 resolvers). 0 means 24. The classes' ceilings
	// are IPv4 observations: an IPv6 client prefix is capped by the IPv6
	// source policy (V6SourceBits) instead.
	MaxClientECSBits int

	// CacheMode, CacheCapBits and ClampScopeToSource configure the ECS
	// cache semantics (see ecscache).
	CacheMode          ecscache.ScopeMode
	CacheCapBits       uint8
	ClampScopeToSource bool
	// NoCacheScopeZero drops responses with scope 0 instead of caching
	// them (observed on the private-prefix resolver).
	NoCacheScopeZero bool

	// SendECSToRoot violates the RFC by including ECS on queries to the
	// root zone (15 resolvers in the DITL data).
	SendECSToRoot bool

	// AdaptSourceToScope makes the resolver learn per-authority: after
	// receiving a response whose scope is shorter than the conveyed
	// source prefix, subsequent queries to that authority convey only
	// scope-many bits. This is the adaptive strategy the paper's §9
	// poses as an open question — it preserves mapping quality while
	// shedding needless client bits.
	AdaptSourceToScope bool
}

// Canned profiles for the behavior classes the paper reports. Each
// returns a fresh Profile so callers may tweak fields.

// CompliantProfile is the 76-resolver "correct behavior" class: /24
// source, honors scope, clamps scope to source, truncates accepted client
// prefixes to /24.
func CompliantProfile() Profile {
	return Profile{
		Probing:            ProbeAlways,
		V4SourceBits:       24,
		V6SourceBits:       56,
		AcceptClientECS:    true,
		MaxClientECSBits:   24,
		CacheMode:          ecscache.HonorScope,
		ClampScopeToSource: true,
	}
}

// GoogleLikeProfile models Google Public DNS: compliant ECS behavior,
// sender-derived prefixes (incoming ECS overridden).
func GoogleLikeProfile() Profile {
	p := CompliantProfile()
	p.AcceptClientECS = false
	return p
}

// JammedProfile is the dominant-AS behavior: source prefix 32 with the
// last byte jammed to 0x01.
func JammedProfile() Profile {
	return Profile{
		Probing:            ProbeAlways,
		V4SourceBits:       32,
		JamLastByte:        true,
		JamValue:           0x01,
		CacheMode:          ecscache.HonorScope,
		ClampScopeToSource: true,
	}
}

// FullPrefixProfile sends unabridged /32 prefixes (221 resolvers in the
// CDN dataset that neither truncate nor jam).
func FullPrefixProfile() Profile {
	return Profile{
		Probing:      ProbeAlways,
		V4SourceBits: 32,
		V6SourceBits: 64,
		CacheMode:    ecscache.HonorScope,
	}
}

// TwentyFiveBitProfile sends the RFC-violating /25 prefixes.
func TwentyFiveBitProfile() Profile {
	return Profile{
		Probing:      ProbeAlways,
		V4SourceBits: 25,
		CacheMode:    ecscache.HonorScope,
	}
}

// IgnoreScopeProfile is the 103-resolver class that attaches ECS but
// reuses cached answers for everyone.
func IgnoreScopeProfile() Profile {
	return Profile{
		Probing:      ProbeAlways,
		V4SourceBits: 24,
		CacheMode:    ecscache.IgnoreScope,
	}
}

// LongPrefixProfile is the 15-resolver class accepting client prefixes
// longer than /24 and caching at those scopes.
func LongPrefixProfile() Profile {
	return Profile{
		Probing:          ProbeAlways,
		V4SourceBits:     24,
		AcceptClientECS:  true,
		MaxClientECSBits: 32,
		CacheMode:        ecscache.HonorScope,
	}
}

// Cap22Profile is the 8-resolver class imposing a /22 ceiling on both
// conveyed prefixes and cache scopes.
func Cap22Profile() Profile {
	return Profile{
		Probing:          ProbeAlways,
		V4SourceBits:     22,
		AcceptClientECS:  true,
		MaxClientECSBits: 22,
		CacheMode:        ecscache.CapScope,
		CacheCapBits:     22,
	}
}

// LoopbackProberProfile is the 32-resolver class probing with the
// loopback address every 30 minutes.
func LoopbackProberProfile() Profile {
	return Profile{
		Probing:           ProbeInterval,
		Interval:          30 * time.Minute,
		ProbeWithLoopback: true,
		V4SourceBits:      24,
		CacheMode:         ecscache.HonorScope,
	}
}

// PrivatePrefixProfile is the misconfigured resolver sending 10.0.0.0/8
// and failing to reuse scope-0 answers.
func PrivatePrefixProfile() Profile {
	return Profile{
		Probing:          ProbeAlways,
		PrivatePrefixBug: true,
		V4SourceBits:     8,
		CacheMode:        ecscache.HonorScope,
		NoCacheScopeZero: true,
	}
}

// NonECSProfile is a resolver that never sends ECS.
func NonECSProfile() Profile {
	return Profile{Probing: ProbeNever, CacheMode: ecscache.HonorScope}
}

// AdaptiveProfile is a compliant resolver that additionally adapts its
// source prefix length down to the scopes authorities return (§9).
func AdaptiveProfile() Profile {
	p := GoogleLikeProfile()
	p.AdaptSourceToScope = true
	return p
}

// LoopbackAddr is the loopback address used by interval probers.
var LoopbackAddr = netip.MustParseAddr("127.0.0.1")

// PrivateProbeAddr is the private prefix base the buggy resolver leaks.
var PrivateProbeAddr = netip.MustParseAddr("10.0.0.0")
