// Package upstreams implements the resilient multi-upstream transport
// layer between the resolver and the raw exchange primitives: a pool of
// upstream servers with per-upstream health scoring (EWMA RTT +
// failure rate), priority/weighted selection, circuit breakers
// (closed→open→half-open with probe queries), request hedging after an
// adaptive percentile delay, and an adaptive EDNS payload fallback
// ladder (advertise 4096 → on truncation step to 1232 → TCP) that
// remembers each upstream's learned payload ceiling.
//
// The pool keeps two proven accounting partitions — every issued
// attempt settles as exactly one of won/lost/cancelled/failed, and
// every pick is granted or refused — so chaos harnesses can assert
// zero accounting leaks after arbitrary fault schedules.
//
// Determinism: the default (sequential) mode never spawns goroutines
// and reads time only through the injected Now, so a pool driven by
// netem's virtual clock produces replay-identical traces, including
// the hedge race, which is decided arithmetically by comparing modeled
// completion times. Concurrent mode (for real sockets) races a hedge
// against its primary in tracked goroutines using the injected After;
// with hedging off nothing can race, and it too runs every attempt on
// the caller's goroutine.
package upstreams

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"ecsdns/internal/dnswire"
)

// Transport is the per-upstream exchange primitive the pool drives;
// netem.Network implements it for simulations, and cmd/recursor adapts
// real UDP/TCP sockets to it.
type Transport interface {
	Exchange(from, to netip.Addr, query *dnswire.Message) (*dnswire.Message, time.Duration, error)
	ExchangeTCP(from, to netip.Addr, query *dnswire.Message) (*dnswire.Message, time.Duration, error)
}

// Upstream declares one pool member.
type Upstream struct {
	Addr netip.Addr
	// Priority tiers order failover: the pool only selects from the
	// lowest-numbered tier that has an admissible member. Default 0.
	Priority int
	// Weight is the relative share within a tier (default 1): an
	// upstream's health score is divided by its weight, so heavier
	// members absorb proportionally more traffic.
	Weight int
}

// Hedge delay: the hedgePercentile of recent winner RTTs, clamped to
// [hedgeMin, hedgeMax]; before any RTT sample exists it is hedgeMax.
const (
	hedgePercentile = 0.95
	hedgeMin        = 10 * time.Millisecond
	hedgeMax        = 2 * time.Second
)

// Config assembles a Pool.
type Config struct {
	// Upstreams are the pool members (at least one).
	Upstreams []Upstream
	// Transport performs the exchanges.
	Transport Transport
	// Now supplies time: the virtual clock's Now in simulations, the
	// wall clock for live pools.
	Now func() time.Time
	// Hedge races a second healthy upstream when the primary has not
	// answered within the adaptive hedge delay. DisableBreaker turns
	// circuit-breaker gating off; DisableLadder forwards queries
	// unmodified and never falls back. The zero value is hedging off,
	// breakers on, and the 4096→1232→TCP ladder on.
	Hedge          bool
	DisableBreaker bool
	DisableLadder  bool
	// Concurrent races a hedge against its primary in real goroutines
	// instead of the deterministic virtual race; required for wall-clock
	// transports, meaningless work for netem. Requires After. Without
	// Hedge no two attempts overlap and no goroutine is started.
	Concurrent bool
	// After schedules the concurrent hedge timer (time.After for live
	// pools). Only consulted when Concurrent is set.
	After func(time.Duration) <-chan time.Time
}

// Pool is the health-gated multi-upstream transport.
type Pool struct {
	cfg Config

	mu      sync.Mutex
	ups     []*upstream
	sampler rttSampler
	trace   []Transition

	attempts AttemptLedger
	picks    PickLedger
	misc     miscCounters

	wg sync.WaitGroup
}

// upstream is one member's runtime state; everything but addr/priority/
// weight mutates under the pool mutex.
type upstream struct {
	addr     netip.Addr
	priority int
	weight   int
	health   health
	breaker  breaker
	ladder   ladderState
}

// Exchange errors.
var (
	ErrNoUpstreams  = errors.New("upstreams: pool configured with no upstreams")
	ErrAllUnhealthy = errors.New("upstreams: every upstream refused by its circuit breaker")

	errDropped   = errors.New("upstreams: upstream returned no response")
	errMismatch  = errors.New("upstreams: response transaction ID mismatch")
	errTruncated = errors.New("upstreams: response still truncated over TCP")
	errServFail  = errors.New("upstreams: upstream answered SERVFAIL")
)

// New validates cfg and builds the pool.
func New(cfg Config) (*Pool, error) {
	if len(cfg.Upstreams) == 0 {
		return nil, ErrNoUpstreams
	}
	if cfg.Transport == nil {
		return nil, errors.New("upstreams: Config.Transport is required")
	}
	if cfg.Now == nil {
		return nil, errors.New("upstreams: Config.Now is required")
	}
	if cfg.Concurrent && cfg.After == nil {
		return nil, errors.New("upstreams: Concurrent mode requires Config.After")
	}
	seen := make(map[netip.Addr]bool, len(cfg.Upstreams))
	ups := make([]*upstream, 0, len(cfg.Upstreams))
	for _, c := range cfg.Upstreams {
		if !c.Addr.IsValid() {
			return nil, fmt.Errorf("upstreams: invalid upstream address %v", c.Addr)
		}
		if seen[c.Addr] {
			return nil, fmt.Errorf("upstreams: duplicate upstream %s", c.Addr)
		}
		seen[c.Addr] = true
		w := c.Weight
		if w <= 0 {
			w = 1
		}
		ups = append(ups, &upstream{addr: c.Addr, priority: c.Priority, weight: w})
	}
	return &Pool{cfg: cfg, ups: ups}, nil
}

// Wait blocks until every in-flight concurrent attempt has settled.
// Sequential and unhedged pools return immediately.
func (p *Pool) Wait() { p.wg.Wait() }

// Exchange resolves one query through the pool: pick the healthiest
// admissible upstream, run its fallback-ladder chain, hedge a second
// upstream when the primary is slow or failed, and fail over serially
// until every member has been tried. The returned duration is the
// modeled race completion time (which, in sequential mode, can be less
// than the virtual clock consumed, since the hedge chain runs after
// the primary chain rather than beside it).
func (p *Pool) Exchange(from netip.Addr, query *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	budget := len(p.ups)
	// Only a hedge puts two attempts in flight at once. Without one a
	// failover starts after the attempt before it has failed, so the
	// loop below is the whole of it, on the caller's goroutine.
	if p.cfg.Concurrent && p.cfg.Hedge && budget > 1 {
		return p.exchangeConcurrent(from, query)
	}
	tried := make(map[netip.Addr]bool, len(p.ups))
	used := 0
	var lastErr error
	var spent time.Duration // modeled time burned by failed rounds
	for used < budget {
		u := p.pick(tried)
		if u == nil {
			break
		}
		tried[u.addr] = true
		if used > 0 {
			p.misc.failovers.Add(1)
		}
		resp1, c1, err1 := p.runAttempt(from, u, query)
		used++

		// The virtual hedge race: if the primary's modeled cost
		// exceeds the hedge delay (or it failed outright), a second
		// upstream would have been racing — run its chain and decide
		// the race by comparing modeled completion times.
		var h *upstream
		delay, hedging := p.hedgeDelay()
		if hedging && used < budget && (err1 != nil || c1 > delay) {
			h = p.pick(tried)
		}
		if h == nil {
			if err1 == nil {
				p.settleAttempt(outcomeWon)
				return resp1, spent + c1, nil
			}
			p.settleAttempt(outcomeFailed)
			lastErr = err1
			spent += c1
			continue
		}
		tried[h.addr] = true
		p.misc.hedges.Add(1)
		hedgeStart := delay
		if err1 != nil && c1 < hedgeStart {
			// A failed primary triggers the hedge immediately.
			hedgeStart = c1
		}
		resp2, c2, err2 := p.runAttempt(from, h, query)
		used++
		hc := hedgeStart + c2
		switch {
		case err1 == nil && (err2 != nil || c1 <= hc):
			// Primary wins the race.
			p.settleAttempt(outcomeWon)
			switch {
			case err2 == nil:
				p.settleAttempt(outcomeLost)
			case hc >= c1:
				p.settleAttempt(outcomeCancelled)
			default:
				p.settleAttempt(outcomeFailed)
			}
			return resp1, spent + c1, nil
		case err2 == nil:
			// Hedge wins: either the primary failed, or its answer was
			// slower than hedge-delay + hedge cost.
			p.settleAttempt(outcomeWon)
			switch {
			case err1 == nil:
				p.settleAttempt(outcomeLost)
			case c1 >= hc:
				p.settleAttempt(outcomeCancelled)
			default:
				p.settleAttempt(outcomeFailed)
			}
			return resp2, spent + hc, nil
		default:
			p.settleAttempt(outcomeFailed)
			p.settleAttempt(outcomeFailed)
			lastErr = err2
			if hc > c1 {
				spent += hc
			} else {
				spent += c1
			}
		}
	}
	if lastErr == nil {
		p.misc.fastFails.Add(1)
		lastErr = ErrAllUnhealthy
	}
	return nil, spent, lastErr
}

// pick selects the next upstream to try, excluding tried ones.
func (p *Pool) pick(tried map[netip.Addr]bool) *upstream {
	now := p.cfg.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pickUpstream(tried, now)
}

// pickUpstream grants the admissible untried upstream from the best
// priority tier with the lowest weight-adjusted health score, or
// refuses when no candidate passes its breaker gate. Callers hold p.mu.
func (p *Pool) pickUpstream(tried map[netip.Addr]bool, now time.Time) *upstream {
	p.picks.Picks.Add(1)
	var best *upstream
	var bestScore float64
	for _, u := range p.ups {
		if tried[u.addr] || !p.breakerAllow(u, now) {
			continue
		}
		if best != nil && u.priority > best.priority {
			continue
		}
		s := u.health.score() / float64(u.weight)
		if best == nil || u.priority < best.priority || s < bestScore {
			best, bestScore = u, s
		}
	}
	if best == nil {
		p.picks.Refused.Add(1)
		return nil
	}
	p.picks.Granted.Add(1)
	return best
}

// hedgeDelay computes the adaptive hedge delay: the hedgePercentile of
// recent winner costs, clamped to [hedgeMin, hedgeMax]; hedgeMax when
// no sample exists yet.
func (p *Pool) hedgeDelay() (time.Duration, bool) {
	if !p.cfg.Hedge {
		return 0, false
	}
	p.mu.Lock()
	d, ok := p.sampler.percentile(hedgePercentile)
	p.mu.Unlock()
	if !ok {
		return hedgeMax, true
	}
	return min(max(d, hedgeMin), hedgeMax), true
}

// runAttempt issues one attempt (a full ladder chain) against u and
// feeds the outcome into the upstream's health, breaker, and the
// hedge-delay sampler. Settlement into the outcome partition is the
// caller's job: only the caller knows the race result.
func (p *Pool) runAttempt(from netip.Addr, u *upstream, query *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	p.attempts.Issued.Add(1)
	resp, cost, err := p.runChain(from, u, query)
	now := p.cfg.Now()
	p.mu.Lock()
	u.health.observe(err == nil, cost)
	p.breakerObserve(u, err == nil, now)
	if err == nil {
		p.sampler.record(cost)
	}
	p.mu.Unlock()
	return resp, cost, err
}

// runChain walks the EDNS fallback ladder against one upstream:
// advertise ladderSteps[rung]; a truncated answer steps down a rung and
// retries; one UDP loss per chain also steps down (fragment loss is
// indistinguishable from plain loss at the sender); past the last rung
// the chain retries over TCP. Learned rungs persist on the upstream.
func (p *Pool) runChain(from netip.Addr, u *upstream, query *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	if p.cfg.DisableLadder {
		resp, rtt, err := p.cfg.Transport.Exchange(from, u.addr, query)
		if err != nil {
			return nil, rtt, err
		}
		return classify(query, resp, rtt)
	}
	now := p.cfg.Now()
	p.mu.Lock()
	rung := u.ladder.start(now)
	p.mu.Unlock()
	var cost time.Duration
	lossSteps := 0
	for {
		if rung >= len(ladderSteps) {
			p.misc.tcpFallbacks.Add(1)
			resp, rtt, err := p.cfg.Transport.ExchangeTCP(from, u.addr, query)
			cost += rtt
			if err != nil {
				return nil, cost, err
			}
			return classify(query, resp, cost)
		}
		uq := withPayload(query, ladderSteps[rung])
		resp, rtt, err := p.cfg.Transport.Exchange(from, u.addr, uq)
		cost += rtt
		switch {
		case err != nil:
			// One loss per chain is worth re-trying a rung down: an
			// oversized fragmented response drops silently, and only
			// a smaller advertisement can tell loss from frag loss.
			if lossSteps == 0 && rung+1 < len(ladderSteps) {
				lossSteps++
				rung = p.stepLadder(u, rung+1, now)
				continue
			}
			return nil, cost, err
		case resp == nil:
			return nil, cost, errDropped
		case resp.ID != query.ID:
			return nil, cost, errMismatch
		case resp.Truncated:
			rung = p.stepLadder(u, rung+1, now)
			continue
		case resp.RCode == dnswire.RCodeServFail:
			return nil, cost, errServFail
		default:
			return resp, cost, nil
		}
	}
}

// classify validates a terminal (TCP or ladder-disabled) response.
func classify(query, resp *dnswire.Message, cost time.Duration) (*dnswire.Message, time.Duration, error) {
	switch {
	case resp == nil:
		return nil, cost, errDropped
	case resp.ID != query.ID:
		return nil, cost, errMismatch
	case resp.Truncated:
		return nil, cost, errTruncated
	case resp.RCode == dnswire.RCodeServFail:
		return nil, cost, errServFail
	}
	return resp, cost, nil
}

// stepLadder records a step down u's ladder and returns the new rung.
func (p *Pool) stepLadder(u *upstream, to int, now time.Time) int {
	p.misc.ladderSteps.Add(1)
	p.mu.Lock()
	u.ladder.stepDown(to, now)
	p.mu.Unlock()
	return to
}

// withPayload returns query advertising an EDNS UDP payload of size:
// query itself when it already does — the resolver's 4096 on the
// ladder's first rung — and otherwise a clone with the payload set,
// preserving any options (ECS rides along). The original message is
// never mutated.
func withPayload(query *dnswire.Message, size uint16) *dnswire.Message {
	if query.EDNS != nil && query.EDNS.UDPSize == size {
		return query
	}
	out := *query
	var e dnswire.EDNS
	if query.EDNS != nil {
		e = *query.EDNS
	}
	e.UDPSize = size
	out.EDNS = &e
	return &out
}
