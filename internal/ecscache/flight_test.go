package ecscache

import (
	"errors"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// awaitCoalesced spins until the cache has parked exactly n waiters on
// in-flight calls. Synchronizing on the counter (not on sleeps) makes
// the herd tests deterministic and keeps the wall clock out of the
// package.
func awaitCoalesced(c *Cache, n int64) {
	for c.Stats().Coalesced != n {
		runtime.Gosched()
	}
}

// The acceptance test for the singleflight layer: N concurrent clients
// missing on the same (question, ECS prefix) must produce exactly one
// upstream fetch, with the other N-1 served the leader's result.
func TestSingleflightCollapsesHerd(t *testing.T) {
	c := New(Config{Mode: HonorScope})
	prefix := netip.MustParsePrefix("203.0.113.0/24")
	const herd = 16

	gate := make(chan struct{})
	leaderIn := make(chan struct{})
	var fetches atomic.Int64
	type outcome struct {
		val    any
		shared bool
		err    error
	}
	results := make(chan outcome, herd)

	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			val, shared, err := Do(c, keyA, prefix, func() (any, error) {
				if fetches.Add(1) == 1 {
					close(leaderIn)
				}
				<-gate
				return "upstream-answer", nil
			})
			results <- outcome{val, shared, err}
		}()
	}

	<-leaderIn
	// Every other herd member must be parked on the leader before the
	// upstream is allowed to answer — this is what makes "exactly one
	// fetch" a guarantee rather than a race we usually win.
	awaitCoalesced(c, herd-1)
	close(gate)
	wg.Wait()
	close(results)

	sharedCount := 0
	for r := range results {
		if r.err != nil {
			t.Fatalf("herd member got error: %v", r.err)
		}
		if r.val != "upstream-answer" {
			t.Fatalf("herd member got %v", r.val)
		}
		if r.shared {
			sharedCount++
		}
	}
	if got := fetches.Load(); got != 1 {
		t.Fatalf("upstream fetched %d times, want 1", got)
	}
	if sharedCount != herd-1 {
		t.Fatalf("%d of %d members shared the flight, want %d", sharedCount, herd, herd-1)
	}
	if st := c.Stats(); st.Coalesced != herd-1 {
		t.Fatalf("Coalesced = %d, want %d", st.Coalesced, herd-1)
	}
}

// TestAllocGateFlightWithoutWaiters counts a flight no one waits on, a
// resolver's every miss but a herd's: its slot in the flight map and
// nothing else, so no call, channel or boxed result.
func TestAllocGateFlightWithoutWaiters(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c := New(Config{Mode: HonorScope})
	prefix := netip.MustParsePrefix("203.0.113.0/24")
	type result struct{ a, b []int }
	fetch := func() (result, error) { return result{}, nil }
	Do(c, keyA, prefix, fetch) // the map's first slot
	if allocs := testing.AllocsPerRun(1000, func() { Do(c, keyA, prefix, fetch) }); allocs > 0 {
		t.Fatalf("a flight without waiters allocates %v objects, want 0", allocs)
	}
}

// Sequential misses never coalesce: a finished flight leaves nothing
// behind, so singleflight deduplicates herds, not time.
func TestSingleflightSequentialFetchesBoth(t *testing.T) {
	c := New(Config{Mode: HonorScope})
	prefix := netip.MustParsePrefix("203.0.113.0/24")
	var fetches atomic.Int64
	fetch := func() (any, error) { return fetches.Add(1), nil }
	if _, shared, _ := Do(c, keyA, prefix, fetch); shared {
		t.Fatal("first call reported shared")
	}
	if _, shared, _ := Do(c, keyA, prefix, fetch); shared {
		t.Fatal("sequential call coalesced onto a finished flight")
	}
	if fetches.Load() != 2 {
		t.Fatalf("fetches = %d, want 2", fetches.Load())
	}
}

// Clients behind different ECS prefixes legitimately need different
// answers: concurrent flights for distinct prefixes must not merge.
func TestSingleflightDistinctPrefixesDoNotCoalesce(t *testing.T) {
	c := New(Config{Mode: HonorScope})
	gate := make(chan struct{})
	var inFlight atomic.Int64
	var wg sync.WaitGroup
	for _, p := range []string{"203.0.113.0/24", "198.51.100.0/24"} {
		prefix := netip.MustParsePrefix(p)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, shared, err := Do(c, keyA, prefix, func() (any, error) {
				inFlight.Add(1)
				<-gate
				return prefix.String(), nil
			})
			if err != nil || shared {
				t.Errorf("distinct-prefix flight merged: shared=%v err=%v", shared, err)
			}
		}()
	}
	// Both fetches must be running concurrently — neither waited.
	for inFlight.Load() != 2 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if st := c.Stats(); st.Coalesced != 0 {
		t.Fatalf("Coalesced = %d, want 0", st.Coalesced)
	}
}

// A leader whose fetch panics must still release its waiters (with
// errFlightAbandoned) and clear the slot for the next caller.
func TestSingleflightPanicReleasesWaiters(t *testing.T) {
	c := New(Config{Mode: HonorScope})
	prefix := netip.MustParsePrefix("203.0.113.0/24")
	gate := make(chan struct{})
	leaderIn := make(chan struct{})
	leaderDone := make(chan struct{})

	go func() {
		defer func() {
			if recover() == nil {
				t.Error("leader's panic did not propagate")
			}
			close(leaderDone)
		}()
		_, _, _ = Do(c, keyA, prefix, func() (any, error) {
			close(leaderIn)
			<-gate
			panic("upstream exploded")
		})
	}()

	<-leaderIn
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := Do(c, keyA, prefix, func() (any, error) { return "fresh", nil })
		waiterErr <- err
	}()
	awaitCoalesced(c, 1)
	close(gate)

	if err := <-waiterErr; !errors.Is(err, errFlightAbandoned) {
		t.Fatalf("waiter error = %v, want errFlightAbandoned", err)
	}
	<-leaderDone

	// The slot is clear: a fresh call runs its own fetch normally.
	val, shared, err := Do(c, keyA, prefix, func() (any, error) { return "fresh", nil })
	if err != nil || shared || val != "fresh" {
		t.Fatalf("post-panic flight broken: %v %v %v", val, shared, err)
	}
}
