// Package cdn models content delivery networks: fleets of edge servers
// placed in cities of the synthetic Internet, and the user-to-edge
// mapping policies the paper probes. Two concrete policies mirror the
// anonymized "CDN-1" and "CDN-2" of §8.3 (proximity mapping only above a
// source-prefix-length threshold, with different fallbacks), and a
// Google-like policy reproduces the Table 2 behavior of mapping
// non-routable ECS prefixes to arbitrary, often intercontinental edges.
package cdn

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"sort"

	"ecsdns/internal/ecsopt"
	"ecsdns/internal/geo"
)

// Edge is a single edge server.
type Edge struct {
	Addr    netip.Addr
	CityIdx int
	Loc     geo.Location
}

// Deployment is a fleet of edges over the synthetic world.
type Deployment struct {
	Name   string
	world  *geo.Internet
	edges  []Edge
	byCity map[int][]int // city index → indices into edges
	cities []int         // cities with at least one edge, sorted
}

// Deploy places perCity edge servers in each of the given catalog cities.
// Edge addresses come from the city's own address space, so they are
// locatable by the geolocation model. salt decorrelates deployments that
// share cities.
func Deploy(world *geo.Internet, name string, cities []int, perCity, salt int) *Deployment {
	d := &Deployment{
		Name:   name,
		world:  world,
		byCity: make(map[int][]int),
	}
	seen := map[int]bool{}
	for _, ci := range cities {
		if seen[ci] {
			continue
		}
		seen[ci] = true
		for k := 0; k < perCity; k++ {
			addr := world.AddrInCity(ci, salt+k, 200+k)
			d.byCity[ci] = append(d.byCity[ci], len(d.edges))
			d.edges = append(d.edges, Edge{Addr: addr, CityIdx: ci, Loc: geo.LocationOfCity(ci)})
		}
		d.cities = append(d.cities, ci)
	}
	sort.Ints(d.cities)
	return d
}

// DeployGlobal places edges in every catalog city.
func DeployGlobal(world *geo.Internet, name string, perCity, salt int) *Deployment {
	cities := make([]int, len(geo.Cities))
	for i := range cities {
		cities[i] = i
	}
	return Deploy(world, name, cities, perCity, salt)
}

// NearestCity returns the deployment city closest to loc.
func (d *Deployment) NearestCity(loc geo.Location) int {
	best, bestD := -1, 0.0
	for _, ci := range d.cities {
		dist := geo.DistanceKm(loc, geo.LocationOfCity(ci))
		if best < 0 || dist < bestD {
			best, bestD = ci, dist
		}
	}
	return best
}

// EdgesInCity returns the edges placed in the given city.
func (d *Deployment) EdgesInCity(ci int) []Edge {
	idx := d.byCity[ci]
	out := make([]Edge, len(idx))
	for i, e := range idx {
		out[i] = d.edges[e]
	}
	return out
}

// NearestEdges returns up to k edges of the city nearest to loc.
func (d *Deployment) NearestEdges(loc geo.Location, k int) []Edge {
	ci := d.NearestCity(loc)
	if ci < 0 {
		return nil
	}
	edges := d.EdgesInCity(ci)
	if k > 0 && len(edges) > k {
		edges = edges[:k]
	}
	return edges
}

// FallbackMode selects what a policy does when it is not using the ECS
// information (option absent, prefix too short, or prefix unroutable).
type FallbackMode int

// Fallback modes.
const (
	// FallbackResolver maps by the recursive resolver's location — the
	// classic pre-ECS behavior (CDN-2's observed fallback).
	FallbackResolver FallbackMode = iota
	// FallbackCentral returns a consistent pick from a small fixed set
	// of central edges regardless of anyone's location (CDN-1's
	// observed non-proximity fallback: 5–14 unique addresses total).
	FallbackCentral
	// FallbackHashGlobal hashes the prefix to an arbitrary deployment
	// city — the behavior that sends Table 2's loopback prefixes to
	// Switzerland and South Africa.
	FallbackHashGlobal
)

// MapQuery is the input to a mapping decision.
type MapQuery struct {
	// ECS is the client subnet from the query; HasECS distinguishes a
	// present-but-zero option from no option.
	ECS    ecsopt.ClientSubnet
	HasECS bool
	// Resolver is the source address of the query (the egress
	// resolver).
	Resolver netip.Addr
}

// MapResult is the outcome of a mapping decision.
type MapResult struct {
	// Edges are the answer addresses, nearest cluster first.
	Edges []Edge
	// Scope is the ECS scope prefix length for the response option
	// (meaningful only when UsedECS).
	Scope uint8
	// UsedECS reports whether the client subnet influenced the choice.
	UsedECS bool
}

// Policy is a user-to-edge mapping policy over a deployment.
type Policy struct {
	D *Deployment
	// MinECSPrefix is the minimum IPv4 source prefix length the policy
	// will act on; shorter prefixes take the fallback path. IPv6
	// prefixes are scaled by ×4 (a /24 threshold becomes /96).
	MinECSPrefix int
	// Fallback is the non-ECS path behavior.
	Fallback FallbackMode
	// CentralCount bounds the central set for FallbackCentral.
	CentralCount int
	// ScopeCap caps the scope returned for ECS answers; 0 means "echo
	// the source prefix". CDN-1 echoes up to 24; CDN-2 answers at /21
	// granularity.
	ScopeCap uint8
	// AnswerCount is how many edge addresses each answer carries.
	AnswerCount int
	// TreatUnroutableAsResolver follows the RFC's SHOULD: unroutable
	// prefixes map like the resolver itself. When false, unroutable
	// prefixes take the fallback path verbatim (hash-global for the
	// Google-like policy).
	TreatUnroutableAsResolver bool
}

// Select maps a query to edges per the policy.
func (p *Policy) Select(q MapQuery) MapResult {
	if p.AnswerCount <= 0 {
		p.AnswerCount = 1
	}
	useECS := q.HasECS && !q.ECS.IsZero()
	if useECS {
		minBits := p.MinECSPrefix
		if q.ECS.Family == ecsopt.FamilyIPv6 {
			minBits *= 4
		}
		if int(q.ECS.SourcePrefix) < minBits {
			useECS = false
		}
	}
	if useECS && !q.ECS.IsRoutable() {
		if p.TreatUnroutableAsResolver {
			useECS = false
		} else {
			// Unroutable prefix taken at face value: it geolocates
			// nowhere, so the mapper degenerates to a hash.
			return MapResult{
				Edges:   p.hashEdges(q.ECS.String()),
				Scope:   p.scopeFor(q.ECS),
				UsedECS: true,
			}
		}
	}
	if useECS {
		loc, ok := p.D.world.Locate(q.ECS.Addr)
		if !ok {
			return MapResult{
				Edges:   p.hashEdges(q.ECS.String()),
				Scope:   p.scopeFor(q.ECS),
				UsedECS: true,
			}
		}
		return MapResult{
			Edges:   p.D.NearestEdges(loc, p.AnswerCount),
			Scope:   p.scopeFor(q.ECS),
			UsedECS: true,
		}
	}
	// Fallback path.
	switch p.Fallback {
	case FallbackCentral:
		// The central pick is consistent per client subnet when one was
		// presented (the paper observed 5–14 distinct fallback answers
		// across its 800 probe prefixes), else per resolver.
		key := q.Resolver.String()
		if q.HasECS && !q.ECS.IsZero() {
			key = q.ECS.Prefix().Addr().String()
		}
		return MapResult{Edges: p.centralKeyedEdges(key)}
	case FallbackHashGlobal:
		return MapResult{Edges: p.hashEdges(q.Resolver.String())}
	default:
		loc, ok := p.D.world.Locate(q.Resolver)
		if !ok {
			return MapResult{Edges: p.centralEdges(q.Resolver)}
		}
		return MapResult{Edges: p.D.NearestEdges(loc, p.AnswerCount)}
	}
}

func (p *Policy) scopeFor(cs ecsopt.ClientSubnet) uint8 {
	scope := cs.SourcePrefix
	maxV4 := uint8(ecsopt.RecommendedMaxV4)
	if cs.Family == ecsopt.FamilyIPv6 {
		maxV4 = ecsopt.RecommendedMaxV6
	}
	if scope > maxV4 {
		scope = maxV4
	}
	if p.ScopeCap != 0 {
		limit := p.ScopeCap
		if cs.Family == ecsopt.FamilyIPv6 {
			limit *= 2
		}
		if scope > limit {
			scope = limit
		}
	}
	return scope
}

// centralEdges returns a deterministic pick from a small central set: the
// deployment's first CentralCount cities in catalog order.
func (p *Policy) centralEdges(key netip.Addr) []Edge {
	return p.centralKeyedEdges(key.String())
}

func (p *Policy) centralKeyedEdges(key string) []Edge {
	n := p.CentralCount
	if n <= 0 {
		n = 8
	}
	if n > len(p.D.cities) {
		n = len(p.D.cities)
	}
	if n == 0 {
		return nil
	}
	h := fnv.New32a()
	fmt.Fprint(h, key)
	ci := p.D.cities[int(h.Sum32())%n]
	edges := p.D.EdgesInCity(ci)
	if len(edges) > p.AnswerCount {
		edges = edges[:p.AnswerCount]
	}
	return edges
}

// hashEdges hashes an opaque key to an arbitrary deployment city.
func (p *Policy) hashEdges(key string) []Edge {
	if len(p.D.cities) == 0 {
		return nil
	}
	h := fnv.New32a()
	fmt.Fprint(h, key)
	ci := p.D.cities[int(h.Sum32())%len(p.D.cities)]
	edges := p.D.EdgesInCity(ci)
	if len(edges) > p.AnswerCount {
		edges = edges[:p.AnswerCount]
	}
	return edges
}

// NewCDN1 builds the CDN-1 policy of §8.3: proximity mapping only for
// source prefixes of at least 24 bits; anything shorter gets a
// non-proximity answer from a handful of central edges. Scope echoes the
// source up to /24.
func NewCDN1(world *geo.Internet) *Policy {
	return &Policy{
		D:                         DeployGlobal(world, "cdn1", 8, 101),
		MinECSPrefix:              24,
		Fallback:                  FallbackCentral,
		CentralCount:              8,
		ScopeCap:                  24,
		AnswerCount:               2,
		TreatUnroutableAsResolver: true,
	}
}

// NewCDN2 builds the CDN-2 policy of §8.3: ECS honored for prefixes of at
// least 21 bits with /21-granularity scope; shorter prefixes fall back to
// resolver-based proximity with scope zero.
func NewCDN2(world *geo.Internet) *Policy {
	return &Policy{
		D:                         DeployGlobal(world, "cdn2", 1, 202),
		MinECSPrefix:              21,
		Fallback:                  FallbackResolver,
		ScopeCap:                  21,
		AnswerCount:               1,
		TreatUnroutableAsResolver: true,
	}
}

// NewGoogleLike builds the Table 2 authoritative behavior: proximity
// mapping for routable prefixes and resolver addresses, but unroutable
// ECS prefixes are taken at face value and hash to arbitrary edges across
// the globe.
func NewGoogleLike(world *geo.Internet) *Policy {
	return &Policy{
		D:                         DeployGlobal(world, "google-like", 16, 303),
		MinECSPrefix:              1,
		Fallback:                  FallbackResolver,
		ScopeCap:                  24,
		AnswerCount:               16,
		TreatUnroutableAsResolver: false,
	}
}
