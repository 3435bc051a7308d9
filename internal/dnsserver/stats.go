package dnsserver

import (
	"fmt"
	"sync/atomic"

	"ecsdns/internal/stats"
)

// counters is the server's internal atomic accounting. Every query
// received lands in exactly one outcome term of ServerStats.Check's
// partition on every path through the server:
// TestEachOutcomeCountedOnce drives each path and requires its exact
// delta.
type counters struct {
	received, answered, shed, rrlDropped, slipped, malformed, panics atomic.Int64
	immediate, inflight, conns, connsTotal, connsRejected, workers   atomic.Int64
}

// ServerStats is a point-in-time snapshot of the server's accounting.
type ServerStats struct {
	// Received counts queries read off the wire: UDP datagrams plus TCP
	// frames (including zero-length frames, counted as malformed).
	Received int64
	// Answered counts queries that were admitted and whose handler
	// completed normally — including deliberate no-response drops.
	Answered int64
	// Immediate is the subset of Answered that an Immediate handler
	// answered on the read loop, without a worker.
	Immediate int64
	// Shed counts queries refused before the handler: admission-queue
	// overflow (dropped or answered SERVFAIL per the overflow policy)
	// plus RRL refusals that were not slipped.
	Shed int64
	// RRLDropped is the subset of Shed refused by the response-rate
	// limiter without a slip.
	RRLDropped int64
	// Slipped counts RRL slips: truncated (TC=1) replies steering the
	// client to TCP instead of a silent drop.
	Slipped int64
	// Malformed counts packets that could not be dispatched: wire that
	// does not parse, zero-length TCP frames, and non-query messages.
	Malformed int64
	// Panics counts handler panics recovered and answered SERVFAIL.
	Panics int64
	// Inflight is the number of queries a worker or TCP connection is
	// handling right now; a read loop's immediate answers are not counted.
	Inflight int64
	// Conns is the number of open TCP connections right now;
	// ConnsTotal the lifetime accept count; ConnsRejected the accepts
	// refused by MaxConns.
	Conns         int64
	ConnsTotal    int64
	ConnsRejected int64
	// Workers is the number of UDP worker goroutines started so far:
	// how much concurrency the load has needed out of MaxInflight.
	Workers int64
}

// Stats snapshots the server's counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Received:      s.stats.received.Load(),
		Answered:      s.stats.answered.Load(),
		Immediate:     s.stats.immediate.Load(),
		Shed:          s.stats.shed.Load(),
		RRLDropped:    s.stats.rrlDropped.Load(),
		Slipped:       s.stats.slipped.Load(),
		Malformed:     s.stats.malformed.Load(),
		Panics:        s.stats.panics.Load(),
		Inflight:      s.stats.inflight.Load(),
		Conns:         s.stats.conns.Load(),
		ConnsTotal:    s.stats.connsTotal.Load(),
		ConnsRejected: s.stats.connsRejected.Load(),
		Workers:       s.stats.workers.Load(),
	}
}

// Check returns nil when the outcome classes partition everything read
// off the wire, and otherwise an error with the numbers. It holds once
// the server has drained: a query in flight is in no class yet.
func (st ServerStats) Check() error {
	return stats.Partition("Received = Answered + Shed + Slipped + Malformed + Panics",
		st.Received, st.Answered, st.Shed, st.Slipped, st.Malformed, st.Panics)
}

// String renders the one-line operational summary the cmd binaries log
// on exit.
func (st ServerStats) String() string {
	return fmt.Sprintf(
		"received=%d answered=%d (immediate=%d) shed=%d (rrl-dropped=%d) slipped=%d malformed=%d panics=%d conns=%d/%d (rejected=%d) workers=%d",
		st.Received, st.Answered, st.Immediate, st.Shed, st.RRLDropped, st.Slipped,
		st.Malformed, st.Panics, st.Conns, st.ConnsTotal, st.ConnsRejected, st.Workers)
}
