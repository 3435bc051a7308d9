package upstreams

import "sync/atomic"

// AttemptLedger is the strict accounting of every upstream attempt the
// pool issues. Issued counts attempts at the moment they are sent;
// every attempt then lands in exactly one outcome class: Won (its
// answer was returned to the caller), Lost (a valid answer that lost
// the hedge race), Cancelled (it errored only after the race was
// already decided, so the caller had stopped waiting), or Failed (it
// errored while the caller was still waiting). The pool's tests assert
// that the sum balances after the exchanges they drive, hedged, failed
// over and fast-failed ones among them, and the chaos harnesses after
// every scenario.
type AttemptLedger struct {
	Issued    atomic.Int64
	Won       atomic.Int64
	Lost      atomic.Int64
	Cancelled atomic.Int64
	Failed    atomic.Int64
}

// Balanced reports whether every issued attempt has been settled.
func (l *AttemptLedger) Balanced() bool {
	return l.Issued.Load() == l.Won.Load()+l.Lost.Load()+l.Cancelled.Load()+l.Failed.Load()
}

// PickLedger accounts for upstream selection: every pick request either
// grants an upstream or is refused (all candidates tried already or
// gated off by their circuit breakers).
type PickLedger struct {
	Picks   atomic.Int64
	Granted atomic.Int64
	Refused atomic.Int64
}

// Balanced reports whether every pick has been classified.
func (l *PickLedger) Balanced() bool {
	return l.Picks.Load() == l.Granted.Load()+l.Refused.Load()
}

// miscCounters are the observability counters outside the two
// partitions.
type miscCounters struct {
	hedges       atomic.Int64
	failovers    atomic.Int64
	breakerTrips atomic.Int64
	ladderSteps  atomic.Int64
	tcpFallbacks atomic.Int64
	fastFails    atomic.Int64
}

// Counters is a point-in-time snapshot of every pool counter, for stats
// exit lines and tests.
type Counters struct {
	// Attempt partition: Issued = Won + Lost + Cancelled + Failed.
	Issued, Won, Lost, Cancelled, Failed int64
	// Pick partition: Picks = Granted + Refused.
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

// Balanced reports whether both accounting partitions balance.
func (c Counters) Balanced() bool {
	return c.Issued == c.Won+c.Lost+c.Cancelled+c.Failed &&
		c.Picks == c.Granted+c.Refused
}

// Counters snapshots the pool's counters.
func (p *Pool) Counters() Counters {
	return Counters{
		Issued:       p.attempts.Issued.Load(),
		Won:          p.attempts.Won.Load(),
		Lost:         p.attempts.Lost.Load(),
		Cancelled:    p.attempts.Cancelled.Load(),
		Failed:       p.attempts.Failed.Load(),
		Picks:        p.picks.Picks.Load(),
		Granted:      p.picks.Granted.Load(),
		Refused:      p.picks.Refused.Load(),
		Hedges:       p.misc.hedges.Load(),
		Failovers:    p.misc.failovers.Load(),
		BreakerTrips: p.misc.breakerTrips.Load(),
		LadderSteps:  p.misc.ladderSteps.Load(),
		TCPFallbacks: p.misc.tcpFallbacks.Load(),
		FastFails:    p.misc.fastFails.Load(),
	}
}

// outcome is the exclusive settlement class of one attempt.
type outcome int

const (
	outcomeWon outcome = iota
	outcomeLost
	outcomeCancelled
	outcomeFailed
)

// settleAttempt classifies one issued attempt into its outcome class.
// Every attempt must pass through here exactly once; the switch carries
// a default so no outcome value can leak an attempt out of the books.
func (p *Pool) settleAttempt(o outcome) {
	switch o {
	case outcomeWon:
		p.attempts.Won.Add(1)
	case outcomeLost:
		p.attempts.Lost.Add(1)
	case outcomeCancelled:
		p.attempts.Cancelled.Add(1)
	default:
		p.attempts.Failed.Add(1)
	}
}
