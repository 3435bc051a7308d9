package upstreams

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// runFaultPlan builds a fresh Concurrent-mode pool with hedging and
// drives it through the fault plan derived from seed: a scripted run of
// fail/answer steps on the preferred upstream, a breaker-recovery
// stretch, and one real hedge race. It returns the breaker transition
// trace and the final counter ledger.
//
// Everything the pool observes is injected — scripted transport, manual
// clock, manual hedge timer — and every step settles stragglers with
// p.Wait() before the clock moves, so two runs of the same seed must
// walk the breakers through byte-identical histories. Under -race this
// doubles as the regression test that Concurrent-mode bookkeeping stays
// deterministic, not just data-race-free.
func runFaultPlan(t *testing.T, seed int64) ([]Transition, Counters) {
	t.Helper()
	tr := newFakeTransport()
	clk := newFakeClock()
	after := newManualAfter()
	p, err := New(Config{
		Upstreams:  []Upstream{{Addr: upA}, {Addr: upB}},
		Transport:  tr,
		Now:        clk.Now,
		Concurrent: true,
		Hedge:      true,
		After:      after.After,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.set(upB, answers(20*time.Millisecond))

	// Fault plan: the seeded source decides, step by step, whether A
	// answers or fails. A's optimistic prior keeps it preferred over B's
	// 20ms answers even at the failure-rate ceiling (1ms * 10 < 20ms),
	// so consecutive fail steps reliably accumulate on A's breaker; once
	// A trips, picks flow to B until the open interval lapses.
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 16; i++ {
		if rng.Intn(3) == 0 {
			tr.set(upA, answers(2*time.Millisecond))
		} else {
			tr.set(upA, fails(time.Millisecond))
		}
		if _, _, err := p.Exchange(cli, query(uint16(i+1))); err != nil {
			t.Fatalf("plan step %d: %v", i, err)
		}
		p.Wait() // settle step i's breaker observations before the clock moves
		clk.Advance(10 * time.Second)
	}

	// Recovery stretch: move past breakerOpenFor so an open breaker admits
	// half-open probes, then answer them so A ends the plan Closed and
	// preferred again.
	clk.Advance(40 * time.Second)
	tr.set(upA, answers(2*time.Millisecond))
	for i := 0; i < 3; i++ {
		if _, _, err := p.Exchange(cli, query(uint16(100+i))); err != nil {
			t.Fatalf("recovery step %d: %v", i, err)
		}
		p.Wait()
		clk.Advance(time.Second)
	}

	// Hedge epilogue: the preferred upstream blocks, the fired timer
	// races B, B wins, and the released straggler settles before the
	// trace is read.
	release := make(chan struct{})
	tr.set(upA, blockUntil(release, 300*time.Millisecond))
	done := make(chan struct{})
	go func() { // joined via the done channel
		defer close(done)
		if _, _, err := p.Exchange(cli, query(200)); err != nil {
			t.Error(err)
		}
	}()
	after.fire()
	<-done
	close(release)
	p.Wait()
	return p.BreakerTrace(), checkCounters(t, p)
}

// TestReplayDeterminism runs the same seeded fault plan through two
// independently built pools and requires identical breaker traces and
// counter ledgers. The trace is the replay-identity witness: any
// wall-clock read, global rand draw, or map-order dependence in the
// hedging/breaker path shows up here as diverging Transition values long
// before it would corrupt a real measurement run.
func TestReplayDeterminism(t *testing.T) {
	const seed = 7
	trace1, c1 := runFaultPlan(t, seed)
	trace2, c2 := runFaultPlan(t, seed)

	// Vacuity guards: the plan must actually trip a breaker, recover it,
	// and race a hedge — a plan that exercises none of the concurrent
	// machinery would make the DeepEqual below meaningless.
	var opened, closedAgain bool
	for _, tr := range trace1 {
		if tr.To == Open {
			opened = true
		}
		if tr.From == HalfOpen && tr.To == Closed {
			closedAgain = true
		}
	}
	if !opened || !closedAgain {
		t.Fatalf("fault plan never tripped and recovered a breaker: %v", trace1)
	}
	if c1.Hedges == 0 {
		t.Fatalf("fault plan never hedged: %+v", c1)
	}

	if !reflect.DeepEqual(trace1, trace2) {
		t.Errorf("breaker traces diverge across identical runs\n--- run 1 ---\n%v\n--- run 2 ---\n%v",
			trace1, trace2)
	}
	if c1 != c2 {
		t.Errorf("counter ledgers diverge across identical runs\nrun 1: %+v\nrun 2: %+v", c1, c2)
	}
}
