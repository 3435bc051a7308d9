package dnsserver

import (
	"math"
	"net/netip"
	"sync"
	"time"
)

// Response-rate limiting (Server.RRL) keeps a token bucket per client
// prefix, refilled on the server's clock at the configured rate, with
// the standard slip mechanism: every rrlSlipEvery-th refused query is
// answered with a truncated (TC=1) empty reply steering the client to
// TCP, which is never rate-limited. Because refill is driven by
// Server.Now and the slip cadence is a per-prefix counter (not a coin
// flip), shed and slip counts under a virtual clock are exact,
// replayable functions of the offered load.
const (
	// rrlSlipEvery answers every second refused query with a TC=1 reply.
	rrlSlipEvery = 2
	// rrlV4Len and rrlV6Len are the client-aggregation widths, the
	// conventional RRL granularity.
	rrlV4Len = 24
	rrlV6Len = 56
	// rrlMaxBuckets bounds the tracked-prefix table. When it is full,
	// idle prefixes are swept; if none are idle the limiter fails open
	// for new prefixes rather than growing without bound.
	rrlMaxBuckets = 8192
)

// rrlAction is the per-query limiter decision.
type rrlAction int

const (
	rrlPass rrlAction = iota
	rrlDrop
	rrlSlip
)

// rrlBucket is one client prefix's token state.
type rrlBucket struct {
	tokens  float64
	last    time.Time
	refused int64 // drives the deterministic slip cadence
}

// rrl is the limiter instance built from Server.RRL at Start.
type rrl struct {
	rate  float64
	burst float64 // ⌈rate⌉, at least 1
	now   func() time.Time

	mu      sync.Mutex
	buckets map[netip.Prefix]*rrlBucket
}

func newRRL(rate float64, now func() time.Time) *rrl {
	return &rrl{
		rate:    rate,
		burst:   max(1, math.Ceil(rate)),
		now:     now,
		buckets: make(map[netip.Prefix]*rrlBucket),
	}
}

// prefixOf aggregates a client address to its limiter key.
func (*rrl) prefixOf(addr netip.Addr) netip.Prefix {
	addr = addr.Unmap()
	bits := rrlV6Len
	if addr.Is4() {
		bits = rrlV4Len
	}
	p, err := addr.Prefix(bits)
	if err != nil {
		return netip.PrefixFrom(addr, addr.BitLen())
	}
	return p
}

// decide charges one query from addr against its prefix bucket and
// returns pass, drop, or slip.
func (r *rrl) decide(addr netip.Addr) rrlAction {
	key := r.prefixOf(addr)
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	b := r.buckets[key]
	if b == nil {
		if len(r.buckets) >= rrlMaxBuckets {
			r.sweep(now)
		}
		if len(r.buckets) >= rrlMaxBuckets {
			return rrlPass // table saturated: fail open, never fall over
		}
		// A prefix's first query allocates its bucket; every later one reuses it.
		b = &rrlBucket{tokens: r.burst, last: now}
		r.buckets[key] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * r.rate
	if b.tokens > r.burst {
		b.tokens = r.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return rrlPass
	}
	b.refused++
	if b.refused%rrlSlipEvery == 0 {
		return rrlSlip
	}
	return rrlDrop
}

// sweep drops prefixes whose buckets would be full at now — clients
// idle long enough to have fully recovered. Callers hold r.mu.
func (r *rrl) sweep(now time.Time) {
	for key, b := range r.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*r.rate >= r.burst {
			delete(r.buckets, key)
		}
	}
}
