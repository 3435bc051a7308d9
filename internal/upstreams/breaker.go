package upstreams

import (
	"net/netip"
	"time"
)

// State is a circuit-breaker state.
type State int8

const (
	// Closed admits every attempt; consecutive failures are counted.
	Closed State = iota
	// Open refuses attempts until breakerOpenFor has elapsed.
	Open
	// HalfOpen admits probe attempts; enough consecutive successes
	// close the breaker, any failure reopens it.
	HalfOpen
)

// String renders the state for traces and stats lines.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "invalid"
}

// Breaker thresholds: breakerFailures consecutive failures trip a
// closed breaker open; an open breaker refuses attempts for
// breakerOpenFor, then admits half-open probes; breakerProbes
// consecutive probe successes close it again. The pool's trace keeps
// the last traceCap transitions.
const (
	breakerFailures = 5
	breakerOpenFor  = 30 * time.Second
	breakerProbes   = 2
	traceCap        = 64
)

// breaker is one upstream's gate state. All mutation happens under the
// pool mutex, through the Pool methods below, so every state change
// lands in the transition trace.
type breaker struct {
	state       State
	consecFails int
	probeOKs    int
	openedAt    time.Time
}

// Transition is one recorded breaker state change. The trace is the
// replay-identity witness: two runs of the same seeded scenario must
// produce byte-identical traces. Keeping only the last traceCap means
// an upstream that flaps for as long as the pool runs (two changes per
// breakerOpenFor) does not grow it.
type Transition struct {
	At       time.Time
	Upstream netip.Addr
	From, To State
}

// setBreakerState transitions u's breaker, recording the change in the
// trace. Callers hold p.mu.
func (p *Pool) setBreakerState(u *upstream, to State, now time.Time) {
	b := &u.breaker
	if b.state == to {
		return
	}
	if len(p.trace) == traceCap {
		p.trace = append(p.trace[:0], p.trace[1:]...)
	}
	p.trace = append(p.trace, Transition{At: now, Upstream: u.addr, From: b.state, To: to})
	if to == Open {
		p.stats.breakerTrips.Add(1)
		b.openedAt = now
	}
	b.state = to
	b.consecFails = 0
	b.probeOKs = 0
}

// breakerAllow reports whether u's gate admits an attempt now. An open
// breaker whose hold time has elapsed transitions to half-open and
// admits the probe. Callers hold p.mu.
func (p *Pool) breakerAllow(u *upstream, now time.Time) bool {
	if p.cfg.DisableBreaker {
		return true
	}
	if u.breaker.state != Open {
		return true
	}
	if now.Sub(u.breaker.openedAt) >= breakerOpenFor {
		p.setBreakerState(u, HalfOpen, now)
		return true
	}
	return false
}

// breakerObserve feeds one attempt outcome into u's gate. Callers hold
// p.mu.
func (p *Pool) breakerObserve(u *upstream, ok bool, now time.Time) {
	if p.cfg.DisableBreaker {
		return
	}
	b := &u.breaker
	switch b.state {
	case Closed:
		if ok {
			b.consecFails = 0
			return
		}
		b.consecFails++
		if b.consecFails >= breakerFailures {
			p.setBreakerState(u, Open, now)
		}
	case HalfOpen:
		if !ok {
			p.setBreakerState(u, Open, now)
			return
		}
		b.probeOKs++
		if b.probeOKs >= breakerProbes {
			p.setBreakerState(u, Closed, now)
		}
	case Open:
		// Concurrent-mode stragglers can complete while the breaker is
		// already open; a late success re-arms the probe window.
		if ok {
			p.setBreakerState(u, HalfOpen, now)
			u.breaker.probeOKs = 1
		}
	}
}
