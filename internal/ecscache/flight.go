package ecscache

import (
	"errors"
	"net/netip"
	"sync"
)

// flightGroup deduplicates concurrent upstream fetches for the same
// (question, ECS prefix): the paper's §7 shows ECS multiplies the
// distinct answers a resolver must fetch, so a popular name under a
// thundering herd would otherwise fan every per-prefix miss out to the
// authority once per waiting client. The first caller for a key becomes
// the leader and runs the fetch; everyone else blocks on the leader's
// done channel and shares the result.
type flightGroup struct {
	mu sync.Mutex
	// calls holds a key for each flight in progress: nil while no one
	// waits on it, the call its waiters wait on once one does.
	calls map[flightKey]*flightCall
}

// flightKey scopes deduplication: clients behind different ECS prefixes
// legitimately need different upstream answers and must not coalesce.
type flightKey struct {
	key    Key
	prefix netip.Prefix
}

// flightCall is what the waiters on one flight share, made by the first
// of them: most flights have none, and cost no call, no channel and no
// boxed result.
type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

func (g *flightGroup) init() {
	g.calls = make(map[flightKey]*flightCall)
}

// errFlightAbandoned surfaces to waiters when the leader's fetch
// panicked before producing a result.
var errFlightAbandoned = errors.New("ecscache: in-flight fetch abandoned")

// Do executes fetch once per concurrently in-flight (key, prefix) pair
// of c. The first caller runs fetch (outside every cache lock);
// concurrent duplicates block until it finishes and receive the same
// value and error with shared=true, counting one Coalesced each, so
// every caller of one key must ask for the same T. Sequential calls
// never coalesce — a completed flight leaves no state behind, so this
// deduplicates herds, not time.
func Do[T any](c *Cache, key Key, prefix netip.Prefix, fetch func() (T, error)) (val T, shared bool, err error) {
	fk := flightKey{key: key, prefix: prefix}
	g := &c.flight
	g.mu.Lock()
	if call, ok := g.calls[fk]; ok {
		if call == nil {
			call = &flightCall{done: make(chan struct{}), err: errFlightAbandoned}
			g.calls[fk] = call
		}
		c.stats.coalesced.Add(1)
		g.mu.Unlock()
		<-call.done
		val, _ = call.val.(T)
		return val, true, call.err
	}
	g.calls[fk] = nil
	g.mu.Unlock()

	// Leader: even a panicking fetch must release the waiters (they see
	// errFlightAbandoned) and clear the slot, or the herd hangs forever.
	done := false
	defer func() {
		g.mu.Lock()
		call := g.calls[fk]
		delete(g.calls, fk)
		g.mu.Unlock()
		if call != nil {
			if done {
				call.val, call.err = val, err
			}
			close(call.done)
		}
	}()
	val, err = fetch()
	done = true
	return val, false, err
}
