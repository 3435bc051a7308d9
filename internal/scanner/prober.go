package scanner

import (
	"fmt"
	"net/netip"
	"sync"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
)

// CachingClass is a §6.3 cache-behavior class.
type CachingClass int

// Cache-behavior classes, in the order the paper reports them.
const (
	// CachingCorrect honors authoritative scopes, conveys at most /24,
	// and clamps scopes exceeding the source.
	CachingCorrect CachingClass = iota
	// CachingIgnoresScope reuses cached answers for any client (103 of
	// 203 resolvers).
	CachingIgnoresScope
	// CachingAcceptsLong conveys client prefixes longer than /24 and
	// caches at those scopes (15 resolvers).
	CachingAcceptsLong
	// CachingCaps22 truncates conveyed prefixes and cache scopes to /22
	// (8 resolvers).
	CachingCaps22
	// CachingPrivatePrefix sends a private-block prefix and fails to
	// reuse scope-0 answers (1 resolver).
	CachingPrivatePrefix
	// CachingUnknown could not be classified.
	CachingUnknown
)

// String names the class.
func (c CachingClass) String() string {
	switch c {
	case CachingCorrect:
		return "correct"
	case CachingIgnoresScope:
		return "ignores-scope"
	case CachingAcceptsLong:
		return "accepts-long-prefix"
	case CachingCaps22:
		return "caps-22"
	case CachingPrivatePrefix:
		return "private-prefix"
	}
	return "unknown"
}

// ScopeControl lets the prober change the experimental authority's scope
// policy between trials. Install Func as the authority's ScopeFunc.
type ScopeControl struct {
	mu sync.Mutex
	fn authority.ScopeFunc
}

// NewScopeControl starts with the scan default scope = source − 4.
func NewScopeControl() *ScopeControl {
	return &ScopeControl{fn: authority.ScopeSourceMinus(4)}
}

// Func returns the live scope function to hand to authority.Config.
func (c *ScopeControl) Func() authority.ScopeFunc {
	return func(cs ecsopt.ClientSubnet) uint8 {
		c.mu.Lock()
		fn := c.fn
		c.mu.Unlock()
		return fn(cs)
	}
}

// Set swaps the active scope policy.
func (c *ScopeControl) Set(fn authority.ScopeFunc) {
	c.mu.Lock()
	c.fn = fn
	c.mu.Unlock()
}

// CacheObservation is what the two-query trials observed for one
// resolver.
type CacheObservation struct {
	// ArrivalsScope24 is the upstream arrival count when the two
	// vantages are in different /22s and the authority returns scope
	// /24 (compliant: 2).
	ArrivalsScope24 int
	// ArrivalsScope16 is the count when the authority returns scope /16
	// (compliant: 1, the /16 is shared).
	ArrivalsScope16 int
	// ArrivalsScope0 is the count under scope 0 (compliant: 1).
	ArrivalsScope0 int
	// ArrivalsSameSlash22 is the count for two vantages in the same /22
	// but different /24s under scope /24 (compliant: 2; cap-22: 1).
	ArrivalsSameSlash22 int
	// ArrivalsLongPrefix is the count for two injected /28s inside one
	// /24 under scope-echo (compliant: 1; long-prefix cacher: 2). Only
	// meaningful when CanInject.
	ArrivalsLongPrefix int
	// ArrivalsScopeOverSource is the count for two same-/24 queries when
	// the authority answers with scope 32 > source (compliant clamps:
	// 1). Only meaningful when CanInject.
	ArrivalsScopeOverSource int
	// MaxConveyedBits is the longest IPv4 source prefix the authority
	// saw from this resolver.
	MaxConveyedBits uint8
	// ConveyedBitsForInjected24 is what arrived when a /24 was
	// presented (22 reveals the capping group).
	ConveyedBitsForInjected24 uint8
	// ConveyedPrivate reports a private/unroutable prefix arriving.
	ConveyedPrivate bool
	// CanInject reports whether arbitrary prefixes reached the resolver
	// (technique 1 of §6.3.1).
	CanInject bool
}

// Classify maps an observation to its behavior class, mirroring §6.3.2.
func Classify(obs CacheObservation) CachingClass {
	switch {
	case obs.ConveyedPrivate:
		return CachingPrivatePrefix
	case obs.ArrivalsScope24 == 1:
		return CachingIgnoresScope
	case obs.ConveyedBitsForInjected24 == 22 || obs.ArrivalsSameSlash22 == 1:
		return CachingCaps22
	case obs.MaxConveyedBits > 24:
		return CachingAcceptsLong
	case obs.ArrivalsScope24 == 2 && obs.ArrivalsScope16 == 1 && obs.ArrivalsScope0 == 1:
		return CachingCorrect
	default:
		return CachingUnknown
	}
}

// Prober runs the §6.3 methodology against one resolver setup.
type Prober struct {
	// Zone is the experimental zone, served with a wildcard A record.
	Zone dnswire.Name
	// Logs is the experimental authority's log buffer.
	Logs *LogBuffer
	// Scope reconfigures the authority per trial.
	Scope *ScopeControl
	// Exchange sends each trial query.
	Exchange Exchange
	// Via is where a query through vantage v goes: the resolver itself
	// for direct injection, or the vantage's forwarder. Vantages 0 and 1
	// are in different /24s and different /22s sharing a /16; vantage 2
	// shares vantage 0's /22 but not its /24.
	Via [3]netip.Addr
	// CanInject reports whether the path delivers arbitrary ECS options
	// to the resolver (verified beforehand by the acceptance test).
	CanInject bool

	trial int
	names map[dnswire.Name]bool
}

// InjectionPrefixes are the ECS prefixes used when injecting directly:
// indexes match Via's vantage numbers.
var InjectionPrefixes = [3]netip.Prefix{
	netip.MustParsePrefix("198.51.100.0/24"),
	netip.MustParsePrefix("198.51.104.0/24"), // different /22, same /16
	netip.MustParsePrefix("198.51.101.0/24"), // same /22 as vantage 0
}

// InjectionMarker is the distinctive prefix DetectInjection sends: if it
// arrives at the authority intact, the path accepts arbitrary client
// prefixes (technique 1 of §6.3.1 applies). 198.18.0.0/15 is the
// benchmarking range — routable-looking but never a real client.
var InjectionMarker = netip.MustParsePrefix("198.18.53.0/24")

// DetectInjection runs the acceptance pre-test of the paper's
// methodology: send one query with a marker ECS prefix and check whether
// the resolver conveyed that exact prefix upstream. It must run before
// the cache trials and sets CanInject on success. The error is non-nil
// only for configuration faults (an unencodable trial name); a resolver
// that ignores the marker is (false, nil).
func (p *Prober) DetectInjection() (bool, error) {
	name, err := p.uniqueName()
	if err != nil {
		return false, err
	}
	mark := p.Logs.Len()
	cs := ecsopt.MustNew(InjectionMarker.Addr(), InjectionMarker.Bits())
	if err := p.send(0, name, &cs); err != nil {
		return false, nil
	}
	for _, rec := range p.Logs.Since(mark) {
		if rec.Name != name || !rec.QueryHasECS {
			continue
		}
		got := rec.QueryECS
		if got.Family == ecsopt.FamilyIPv4 &&
			got.Covers(InjectionMarker.Addr(), int(min(got.SourcePrefix, 24))) &&
			got.SourcePrefix >= 20 {
			p.CanInject = true
			return true, nil
		}
	}
	return false, nil
}

// send asks Via[v] for the A record of name, with inject attached when
// it is non-nil.
func (p *Prober) send(v int, name dnswire.Name, inject *ecsopt.ClientSubnet) error {
	q := dnswire.NewQuery(uint16(v+1), name, dnswire.TypeA)
	if inject != nil {
		ecsopt.Attach(q, *inject)
	}
	_, err := p.Exchange(p.Via[v], q)
	return err
}

func (p *Prober) uniqueName() (dnswire.Name, error) {
	p.trial++
	if p.names == nil {
		p.names = make(map[dnswire.Name]bool)
	}
	// The mark position keys uniqueness across probers sharing one log.
	n, err := p.Zone.Prepend(fmt.Sprintf("t%d-%d", p.Logs.Len(), p.trial))
	if err != nil {
		return "", fmt.Errorf("scanner: bad probe zone %q: %w", p.Zone, err)
	}
	p.names[n] = true
	return n, nil
}

// countArrivals counts authority log records for name since mark.
func (p *Prober) countArrivals(mark int, name dnswire.Name) int {
	n := 0
	for _, rec := range p.Logs.Since(mark) {
		if rec.Name == name {
			n++
		}
	}
	return n
}

// pairTrial runs one two-query trial under the given authority scope and
// returns the upstream arrival count.
func (p *Prober) pairTrial(scope authority.ScopeFunc, v1, v2 int) (int, error) {
	p.Scope.Set(scope)
	name, err := p.uniqueName()
	if err != nil {
		return 0, err
	}
	mark := p.Logs.Len()
	var i1, i2 *ecsopt.ClientSubnet
	if p.CanInject {
		c1 := ecsopt.MustNew(InjectionPrefixes[v1].Addr(), InjectionPrefixes[v1].Bits())
		c2 := ecsopt.MustNew(InjectionPrefixes[v2].Addr(), InjectionPrefixes[v2].Bits())
		i1, i2 = &c1, &c2
	}
	p.send(v1, name, i1)
	p.send(v2, name, i2)
	return p.countArrivals(mark, name), nil
}

// Probe runs the full trial suite and collects the observation. It
// fails only on configuration faults (an unencodable trial name); a
// partial observation is still returned in that case.
func (p *Prober) Probe() (CacheObservation, error) {
	obs := CacheObservation{CanInject: p.CanInject}

	var err error
	if obs.ArrivalsScope24, err = p.pairTrial(authority.ScopeFixed(24), 0, 1); err != nil {
		return obs, err
	}
	if obs.ArrivalsScope16, err = p.pairTrial(authority.ScopeFixed(16), 0, 1); err != nil {
		return obs, err
	}
	if obs.ArrivalsScope0, err = p.pairTrial(authority.ScopeFixed(0), 0, 1); err != nil {
		return obs, err
	}
	if obs.ArrivalsSameSlash22, err = p.pairTrial(authority.ScopeFixed(24), 0, 2); err != nil {
		return obs, err
	}

	if p.CanInject {
		// Two /28s inside vantage 0's /24 under scope echo.
		p.Scope.Set(authority.ScopeEcho())
		name, err := p.uniqueName()
		if err != nil {
			return obs, err
		}
		mark := p.Logs.Len()
		base := InjectionPrefixes[0].Addr().As4()
		a := base
		a[3] = 16
		b := base
		b[3] = 32
		c1 := ecsopt.MustNew(netip.AddrFrom4(a), 28)
		c2 := ecsopt.MustNew(netip.AddrFrom4(b), 28)
		p.send(0, name, &c1)
		p.send(0, name, &c2)
		obs.ArrivalsLongPrefix = p.countArrivals(mark, name)

		// Scope exceeding source: authority claims scope 32 for a /24
		// query; a compliant resolver clamps to /24 and reuses.
		p.Scope.Set(authority.ScopeFixed(32))
		name, err = p.uniqueName()
		if err != nil {
			return obs, err
		}
		mark = p.Logs.Len()
		d1 := ecsopt.MustNew(InjectionPrefixes[0].Addr(), 24)
		p.send(0, name, &d1)
		p.send(0, name, &d1)
		obs.ArrivalsScopeOverSource = p.countArrivals(mark, name)
	}

	// Harvest conveyed-prefix facts from this probe's own trials only:
	// the log buffer is shared across probers.
	for _, rec := range p.Logs.All() {
		if !rec.QueryHasECS || rec.QueryECS.Family != ecsopt.FamilyIPv4 {
			continue
		}
		if !p.names[rec.Name] {
			continue
		}
		bits := rec.QueryECS.SourcePrefix
		if bits > obs.MaxConveyedBits {
			obs.MaxConveyedBits = bits
		}
		if rec.QueryECS.Addr.IsPrivate() {
			obs.ConveyedPrivate = true
		}
	}
	// What does a presented /24 turn into? Replay a dedicated trial.
	p.Scope.Set(authority.ScopeFixed(24))
	name, err := p.uniqueName()
	if err != nil {
		return obs, err
	}
	mark := p.Logs.Len()
	var inj *ecsopt.ClientSubnet
	if p.CanInject {
		c := ecsopt.MustNew(InjectionPrefixes[0].Addr(), 24)
		inj = &c
	}
	p.send(0, name, inj)
	for _, rec := range p.Logs.Since(mark) {
		if rec.Name == name && rec.QueryHasECS && rec.QueryECS.Family == ecsopt.FamilyIPv4 {
			obs.ConveyedBitsForInjected24 = rec.QueryECS.SourcePrefix
		}
	}
	return obs, nil
}
