package upstreams

import "time"

// The adaptive EDNS payload fallback ladder. Each upstream walks the
// rungs independently: queries advertise ladderSteps[rung] as the EDNS
// UDP payload size; a truncated answer steps one rung down; past the
// last rung the chain retries over TCP. The learned rung (the
// upstream's payload ceiling) persists across queries and relaxes one
// rung back up after ladderDecay without a step down, so a transient
// fragmentation episode does not pin an upstream to small answers
// forever.

// ladderSteps is the advertisement ladder: the classic 4096-byte EDNS
// buffer, then the DNS-Flag-Day-2020 fragmentation-safe 1232 bytes,
// then TCP.
var ladderSteps = [...]uint16{4096, 1232}

const ladderDecay = 5 * time.Minute

// ladderState is one upstream's learned position on the ladder. rung
// indexes ladderSteps; rung == len(ladderSteps) means straight to TCP.
// Mutation happens under the pool mutex.
type ladderState struct {
	rung      int
	changedAt time.Time
}

// start returns the rung a new chain should open at, first applying
// decay: after a quiet period the learned ceiling relaxes one rung back
// toward the widest advertisement.
func (l *ladderState) start(now time.Time) int {
	if l.rung > 0 && now.Sub(l.changedAt) >= ladderDecay {
		l.rung--
		l.changedAt = now
	}
	return l.rung
}

// stepDown records that the chain had to move past rung `to-1`; the
// learned ceiling only ever moves down here (decay moves it up).
func (l *ladderState) stepDown(to int, now time.Time) {
	if to > len(ladderSteps) {
		to = len(ladderSteps)
	}
	if to > l.rung {
		l.rung = to
		l.changedAt = now
	}
}
