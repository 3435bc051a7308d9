// Package netem provides the in-memory network the simulations run on: a
// virtual clock, a registry of DNS-speaking nodes addressed by IP, and a
// synchronous exchange primitive whose latency is derived from the
// geographic distance between the endpoints. It lets thousands of
// resolvers, forwarders and authoritative servers interact without
// sockets while keeping time and latency semantics realistic.
package netem

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/geo"
)

// Clock is a virtual clock. Simulations advance it explicitly; nothing in
// this module reads the wall clock on a simulated path.
type Clock struct {
	mu  sync.Mutex
	now time.Time
}

// SimStart is the epoch simulations start at by default. Its specific
// value is irrelevant; it is fixed so runs are reproducible.
var SimStart = time.Date(2019, time.March, 1, 0, 0, 0, 0, time.UTC)

// NewClock returns a clock set to start.
func NewClock(start time.Time) *Clock {
	return &Clock{now: start}
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d (negative d is ignored).
func (c *Clock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// Set jumps the clock to t if t is in the future.
func (c *Clock) Set(t time.Time) {
	c.mu.Lock()
	if t.After(c.now) {
		c.now = t
	}
	c.mu.Unlock()
}

// Handler is a DNS-speaking simulation node. Handlers may issue their own
// exchanges on the same network (a resolver querying an authority) from
// inside HandleDNS.
type Handler interface {
	HandleDNS(from netip.Addr, query *dnswire.Message) *dnswire.Message
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from netip.Addr, query *dnswire.Message) *dnswire.Message

// HandleDNS implements Handler.
func (f HandlerFunc) HandleDNS(from netip.Addr, query *dnswire.Message) *dnswire.Message {
	return f(from, query)
}

// Exchange errors.
var (
	ErrNoRoute = errors.New("netem: no node at destination address")
	ErrDropped = errors.New("netem: node dropped the query")
	ErrLost    = errors.New("netem: packet lost in transit")
)

// Network is the in-memory Internet fabric.
type Network struct {
	world *geo.Internet
	clock *Clock

	mu    sync.RWMutex
	nodes map[netip.Addr]Handler

	// WireTap, when non-nil, observes every exchange after it completes.
	WireTap func(ev Event)

	// Fault injection (see faults.go): a global plan plus per-node
	// plans, each with its own seeded RNG, and the counters they feed.
	// faultsActive keeps the no-fault hot path to one atomic load.
	fmu          sync.Mutex
	globalFaults *faultState
	nodeFaults   map[netip.Addr]*faultState
	fstats       FaultStats
	faultsActive atomic.Bool
}

// Event is one completed exchange, as seen by the wire tap.
type Event struct {
	From, To netip.Addr
	Query    *dnswire.Message
	Response *dnswire.Message
	RTT      time.Duration
	Time     time.Time
}

// New creates a network over the given world with its own virtual clock.
func New(world *geo.Internet) *Network {
	return &Network{
		world: world,
		clock: NewClock(SimStart),
		nodes: make(map[netip.Addr]Handler),
	}
}

// Clock returns the network's virtual clock.
func (n *Network) Clock() *Clock { return n.clock }

// World returns the underlying topology.
func (n *Network) World() *geo.Internet { return n.world }

// Register attaches a handler at addr. Registering nil detaches.
func (n *Network) Register(addr netip.Addr, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if h == nil {
		delete(n.nodes, addr)
		return
	}
	n.nodes[addr] = h
}

// RTT returns the modeled round-trip time between two addresses. Unknown
// endpoints contribute only the base RTT.
func (n *Network) RTT(a, b netip.Addr) time.Duration {
	la, oka := n.world.Locate(a)
	lb, okb := n.world.Locate(b)
	if !oka || !okb {
		return time.Duration(geo.BaseRTTMillis * float64(time.Millisecond))
	}
	ms := geo.RTTMillis(la, lb)
	return time.Duration(ms * float64(time.Millisecond))
}

// Exchange sends query from `from` to `to` over the (emulated) UDP
// path, advances the virtual clock by the path RTT, and returns the
// response along with that RTT. A nil response from the handler maps to
// ErrDropped, modeling the silent drops the paper describes for buggy
// nameservers; injected loss (and blackout windows) map to ErrLost
// after a full timeout-equivalent delay, and the response may carry an
// injected truncation, SERVFAIL, corruption, or size fault (payload
// inflation against the query's advertised EDNS buffer, fragment loss)
// per the installed FaultPlans (see faults.go).
func (n *Network) Exchange(from, to netip.Addr, query *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	return n.exchange(from, to, query, false)
}

// ExchangeTCP is Exchange over the (emulated) stream transport: size
// faults, injected truncation, and ID corruption do not apply — TCP
// carries any response intact — while loss, blackouts, latency, and
// SERVFAIL injection still do. It is the final rung of the
// truncation→fragmentation→TCP fallback ladder.
func (n *Network) ExchangeTCP(from, to netip.Addr, query *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	return n.exchange(from, to, query, true)
}

func (n *Network) exchange(from, to netip.Addr, query *dnswire.Message, tcp bool) (*dnswire.Message, time.Duration, error) {
	n.mu.RLock()
	h, ok := n.nodes[to]
	n.mu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrNoRoute, to)
	}
	faulted := n.faultsActive.Load()
	var extra time.Duration
	if faulted {
		lost, cost, add := n.forwardFaults(to)
		if lost {
			// The sender burns a timeout waiting for the lost datagram.
			n.clock.Advance(cost)
			return nil, cost, ErrLost
		}
		extra = add
	}
	rtt := n.RTT(from, to) + extra
	// One-way trip before the handler runs, the return trip after, so
	// nested exchanges made by the handler observe a sensible clock.
	n.clock.Advance(rtt / 2)
	resp := h.HandleDNS(from, query)
	n.clock.Advance(rtt - rtt/2)
	if resp == nil {
		return nil, rtt, ErrDropped
	}
	if faulted {
		var fragDropped bool
		resp, fragDropped = n.responseFaults(to, query, resp, tcp)
		if fragDropped {
			// The oversized response fragmented and a fragment was lost:
			// the sender sees nothing and burns the full loss timeout.
			cost := n.lossTimeoutFor(to)
			if cost > rtt {
				n.clock.Advance(cost - rtt)
			} else {
				cost = rtt
			}
			return nil, cost, ErrLost
		}
	}
	if tap := n.WireTap; tap != nil {
		tap(Event{From: from, To: to, Query: query, Response: resp, RTT: rtt, Time: n.clock.Now()})
	}
	return resp, rtt, nil
}
