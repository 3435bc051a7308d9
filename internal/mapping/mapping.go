// Package mapping runs the user-to-edge-server mapping-quality
// experiments of §8.1 and §8.3: the Table 2 non-routable-prefix probe
// against a Google-like authoritative, and the RIPE-Atlas-style source
// prefix length sweeps against CDN-1 and CDN-2 (Figures 6 and 7). The
// Atlas platform is replaced by a fleet of synthetic probes spread over
// the world topology, and TCP handshake latency by the geographic
// round-trip model.
package mapping

import (
	"fmt"
	"math/rand"
	"net/netip"

	"ecsdns/internal/cdn"
	"ecsdns/internal/ecsopt"
	"ecsdns/internal/geo"
	"ecsdns/internal/stats"
)

// Fleet is the set of measurement probes (the RIPE Atlas substitute).
type Fleet struct {
	Addrs []netip.Addr
}

// NewFleet samples n probe addresses from the world, population-
// weighted, mirroring the paper's random selection of 800 Atlas probes
// across 174 countries.
func NewFleet(world *geo.Internet, n int, seed int64) *Fleet {
	rng := rand.New(rand.NewSource(seed))
	f := &Fleet{Addrs: make([]netip.Addr, n)}
	for i := range f.Addrs {
		f.Addrs[i] = world.RandomClient(rng)
	}
	return f
}

// SweepPoint is the measurement for one source prefix length.
type SweepPoint struct {
	PrefixLen int
	// ConnectMs holds one modeled TCP-handshake latency per probe
	// (median of the paper's three downloads; the model is
	// deterministic, so one sample represents the median).
	ConnectMs []float64
	// UniqueFirstAnswers counts distinct first answer addresses across
	// the fleet — the paper's proxy for whether the CDN is doing
	// proximity mapping at this prefix length.
	UniqueFirstAnswers int
	// ZeroScopeAnswers counts responses whose ECS scope was zero
	// (CDN-2's told-you-nothing fallback signal).
	ZeroScopeAnswers int
}

// CDF returns the empirical distribution of connect latencies.
func (p SweepPoint) CDF() *stats.CDF { return stats.NewCDF(p.ConnectMs) }

// PrefixSweep queries the policy once per probe and prefix length,
// attaching ECS derived from the probe's address truncated to the given
// length, exactly as the paper drives its lab machine with Atlas-derived
// prefixes. resolverAddr is the query source (the lab machine).
func PrefixSweep(world *geo.Internet, policy *cdn.Policy, fleet *Fleet, resolverAddr netip.Addr, lens []int) []SweepPoint {
	out := make([]SweepPoint, 0, len(lens))
	for _, l := range lens {
		pt := SweepPoint{PrefixLen: l}
		unique := map[netip.Addr]bool{}
		for _, probe := range fleet.Addrs {
			cs, err := ecsopt.New(probe, l)
			if err != nil {
				continue
			}
			res := policy.Select(cdn.MapQuery{ECS: cs, HasECS: true, Resolver: resolverAddr})
			if len(res.Edges) == 0 {
				continue
			}
			first := res.Edges[0]
			unique[first.Addr] = true
			probeLoc, ok := world.Locate(probe)
			if !ok {
				continue
			}
			pt.ConnectMs = append(pt.ConnectMs, geo.RTTMillis(probeLoc, first.Loc))
			if res.UsedECS && res.Scope == 0 {
				pt.ZeroScopeAnswers++
			}
			if !res.UsedECS {
				pt.ZeroScopeAnswers++
			}
		}
		pt.UniqueFirstAnswers = len(unique)
		out = append(out, pt)
	}
	return out
}

// TableRow is one line of the Table 2 reproduction.
type TableRow struct {
	Label       string
	FirstAnswer netip.Addr
	RTTMillis   float64
	Location    string
}

// UnroutableProbes are the ECS options of Table 2, in paper order. The
// nil entry means "no ECS option".
func UnroutableProbes(labAddr netip.Addr) []struct {
	Label string
	ECS   *ecsopt.ClientSubnet
} {
	own := ecsopt.MustNew(labAddr, 24)
	lo32 := ecsopt.MustNew(netip.MustParseAddr("127.0.0.1"), 32)
	lo24 := ecsopt.MustNew(netip.MustParseAddr("127.0.0.0"), 24)
	ll24 := ecsopt.MustNew(netip.MustParseAddr("169.254.252.0"), 24)
	return []struct {
		Label string
		ECS   *ecsopt.ClientSubnet
	}{
		{"None", nil},
		{"/24 of src addr", &own},
		{"127.0.0.1/32", &lo32},
		{"127.0.0.0/24", &lo24},
		{"169.254.252.0/24", &ll24},
	}
}

// UnroutableTable reproduces Table 2: five direct queries to a
// Google-like authoritative from the lab machine, varying the ECS
// option, reporting the first answer, its modeled RTT from the lab, and
// its geolocation.
func UnroutableTable(world *geo.Internet, policy *cdn.Policy, labAddr netip.Addr) []TableRow {
	labLoc, ok := world.Locate(labAddr)
	if !ok {
		panic(fmt.Sprintf("mapping: lab address %s not locatable", labAddr))
	}
	rows := make([]TableRow, 0, 5)
	for _, probe := range UnroutableProbes(labAddr) {
		q := cdn.MapQuery{Resolver: labAddr}
		if probe.ECS != nil {
			q.ECS = *probe.ECS
			q.HasECS = true
		}
		res := policy.Select(q)
		if len(res.Edges) == 0 {
			continue
		}
		first := res.Edges[0]
		rows = append(rows, TableRow{
			Label:       probe.Label,
			FirstAnswer: first.Addr,
			RTTMillis:   geo.RTTMillis(labLoc, first.Loc),
			Location:    first.Loc.City,
		})
	}
	return rows
}
