package resolver

import (
	"net/netip"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
)

// Forwarder is an ingress resolver that relays queries to an upstream
// resolver — the home-router role the scan dataset reaches, and equally
// the "hidden resolver" role when chained between a forwarder and an
// egress resolver.
type Forwarder struct {
	// Addr is the forwarder's own address; upstream sees queries from
	// it.
	Addr netip.Addr
	// Upstream is where queries go.
	Upstream netip.Addr
	// Transport carries the relay.
	Transport Transport
	// Open reports whether the forwarder answers queries from anyone
	// (an "open resolver" in scan terms). Closed forwarders only serve
	// sources sharing their /24.
	Open bool
}

// HandleDNS relays one query, its ECS option included, and returns the
// upstream response with the client's transaction ID restored: passing
// options through blindly is what lets the paper's methodology inject
// arbitrary prefixes through open forwarders. It implements
// netem.Handler.
func (f *Forwarder) HandleDNS(from netip.Addr, query *dnswire.Message) *dnswire.Message {
	if !f.Open && !sameSlash24(from, f.Addr) {
		return nil // closed to outsiders: silent drop
	}
	relay := &dnswire.Message{Header: query.Header, Questions: query.Questions, EDNS: query.EDNS}
	resp, _, err := f.Transport.Exchange(f.Addr, f.Upstream, relay)
	if err != nil || resp == nil {
		fail := dnswire.NewResponse(query)
		fail.RCode = dnswire.RCodeServFail
		return fail
	}
	out := *resp
	out.ID = query.ID
	return &out
}

func sameSlash24(a, b netip.Addr) bool {
	if !a.Is4() || !b.Is4() {
		return a == b
	}
	return ecsopt.MaskAddr(a, 24) == ecsopt.MaskAddr(b, 24)
}
