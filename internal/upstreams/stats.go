package upstreams

import (
	"errors"
	"sync/atomic"

	"ecsdns/internal/stats"
)

// counters is the pool's atomic accounting; Counters snapshots it.
type counters struct {
	issued, won, lost, cancelled, failed                                  atomic.Int64
	picks, granted, refused                                               atomic.Int64
	hedges, failovers, breakerTrips, ladderSteps, tcpFallbacks, fastFails atomic.Int64
}

// Counters is a point-in-time snapshot of every pool counter, for stats
// exit lines and tests.
type Counters struct {
	// Issued counts attempts at the moment they are sent. Each lands in
	// one outcome class: Won (its answer was returned to the caller),
	// Lost (a valid answer that lost the hedge race), Cancelled (it
	// errored after the race was decided, so the caller had stopped
	// waiting) or Failed (it errored while the caller was still waiting).
	Issued, Won, Lost, Cancelled, Failed int64
	// Picks counts selection requests: each Granted an upstream, or
	// Refused (every candidate tried already or gated off by its
	// circuit breaker).
	Picks, Granted, Refused int64
	// Hedges counts second attempts raced after the hedge delay,
	// Failovers counts serial moves to another upstream after a failed
	// attempt, BreakerTrips counts transitions into the Open state,
	// LadderSteps counts EDNS payload rung step-downs, TCPFallbacks
	// counts exchanges that ran over the stream transport, and
	// FastFails counts queries refused outright because every breaker
	// was open.
	Hedges, Failovers, BreakerTrips, LadderSteps, TCPFallbacks, FastFails int64
}

// Check returns nil when both partitions hold, and otherwise an error
// naming each that does not, with its numbers. They hold once the pool
// is at rest (Wait has returned): the pool's tests check them after the
// exchanges they drive, hedged, failed over and fast-failed ones among
// them.
func (c Counters) Check() error {
	return errors.Join(
		stats.Partition("Issued = Won + Lost + Cancelled + Failed", c.Issued, c.Won, c.Lost, c.Cancelled, c.Failed),
		stats.Partition("Picks = Granted + Refused", c.Picks, c.Granted, c.Refused))
}

// Counters snapshots the pool's counters.
func (p *Pool) Counters() Counters {
	return Counters{
		Issued:       p.stats.issued.Load(),
		Won:          p.stats.won.Load(),
		Lost:         p.stats.lost.Load(),
		Cancelled:    p.stats.cancelled.Load(),
		Failed:       p.stats.failed.Load(),
		Picks:        p.stats.picks.Load(),
		Granted:      p.stats.granted.Load(),
		Refused:      p.stats.refused.Load(),
		Hedges:       p.stats.hedges.Load(),
		Failovers:    p.stats.failovers.Load(),
		BreakerTrips: p.stats.breakerTrips.Load(),
		LadderSteps:  p.stats.ladderSteps.Load(),
		TCPFallbacks: p.stats.tcpFallbacks.Load(),
		FastFails:    p.stats.fastFails.Load(),
	}
}
