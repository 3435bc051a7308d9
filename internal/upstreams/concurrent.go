package upstreams

import (
	"net/netip"
	"time"

	"ecsdns/internal/dnswire"
)

// attemptResult is one concurrent attempt's completion.
type attemptResult struct {
	resp *dnswire.Message
	cost time.Duration
	err  error
}

// exchangeConcurrent is the wall-clock variant of a hedged Exchange:
// attempts run in tracked goroutines, the hedge timer arms through the
// injected After, and the first valid answer wins the real race.
// Stragglers are settled (lost/cancelled) by a reaper goroutine, so the
// two ledgers balance once Wait returns.
func (p *Pool) exchangeConcurrent(from netip.Addr, query *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	start := p.cfg.Now()
	budget := len(p.ups)
	results := make(chan attemptResult, budget)
	tried := make(map[netip.Addr]bool, len(p.ups))
	inflight, used := 0, 0

	launch := func(u *upstream) {
		tried[u.addr] = true
		used++
		inflight++
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			resp, cost, err := p.runAttempt(from, u, query)
			results <- attemptResult{resp, cost, err}
		}()
	}

	u := p.pick(tried)
	if u == nil {
		p.misc.fastFails.Add(1)
		return nil, 0, ErrAllUnhealthy
	}
	launch(u)

	var hedgeTimer <-chan time.Time
	if d, ok := p.hedgeDelay(); ok && used < budget {
		hedgeTimer = p.cfg.After(d)
	}

	var lastErr error
	for {
		select {
		case r := <-results:
			inflight--
			if r.err == nil {
				p.settleAttempt(outcomeWon)
				if inflight > 0 {
					p.reap(results, inflight)
				}
				return r.resp, p.cfg.Now().Sub(start), nil
			}
			p.settleAttempt(outcomeFailed)
			lastErr = r.err
			if used < budget {
				if next := p.pick(tried); next != nil {
					p.misc.failovers.Add(1)
					launch(next)
					continue
				}
			}
			if inflight == 0 {
				return nil, p.cfg.Now().Sub(start), lastErr
			}
		case <-hedgeTimer:
			hedgeTimer = nil
			if used < budget {
				if next := p.pick(tried); next != nil {
					p.misc.hedges.Add(1)
					launch(next)
				}
			}
		}
	}
}

// reap settles the n attempts still in flight after the race was
// decided: a straggler's valid answer lost the race; an error arriving
// after the caller already returned is cancelled, not failed.
func (p *Pool) reap(results <-chan attemptResult, n int) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for i := 0; i < n; i++ {
			r := <-results
			if r.err == nil {
				p.settleAttempt(outcomeLost)
			} else {
				p.settleAttempt(outcomeCancelled)
			}
		}
	}()
}
