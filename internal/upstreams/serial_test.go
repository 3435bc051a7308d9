package upstreams

import (
	"net/netip"
	"runtime"
	"strings"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
)

// cannedTransport answers every exchange with one prebuilt response and
// allocates nothing, so what a gate around it counts is the pool's own.
// onCall, when set, runs inside every exchange, on whatever goroutine
// the pool made the call from.
type cannedTransport struct {
	resp   *dnswire.Message
	onCall func()
}

func (t *cannedTransport) Exchange(_, _ netip.Addr, _ *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	if t.onCall != nil {
		t.onCall()
	}
	return t.resp, time.Millisecond, nil
}

func (t *cannedTransport) ExchangeTCP(from, to netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	return t.Exchange(from, to, q)
}

// livePool is the pool cmd/recursor builds by default: concurrent mode
// for wall-clock transports, hedging off.
func livePool(t *testing.T, tr Transport, ups ...Upstream) *Pool {
	t.Helper()
	p, err := New(Config{
		Upstreams:  ups,
		Transport:  tr,
		Now:        newFakeClock().Now,
		Concurrent: true,
		After:      newManualAfter().After,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestUnhedgedLivePoolRunsOnCaller pins that a concurrent-mode pool
// starts a goroutine only when two attempts can be in flight at once:
// with hedging off every attempt, failovers included, runs on the
// goroutine that called Exchange.
func TestUnhedgedLivePoolRunsOnCaller(t *testing.T) {
	q := query(1)
	calls := 0
	tr := &cannedTransport{resp: answer(q)}
	tr.onCall = func() {
		calls++ // unsynchronised on purpose: under -race a second goroutine is a report
		var pcs [64]uintptr
		frames := runtime.CallersFrames(pcs[:runtime.Callers(0, pcs[:])])
		for {
			f, more := frames.Next()
			if strings.HasSuffix(f.Function, ".TestUnhedgedLivePoolRunsOnCaller") {
				return
			}
			if !more {
				t.Error("transport called from a goroutine the test function is not on the stack of")
				return
			}
		}
	}
	p := livePool(t, tr, Upstream{Addr: upA}, Upstream{Addr: upB})
	for i := 0; i < 3; i++ {
		if _, _, err := p.Exchange(cli, q); err != nil {
			t.Fatal(err)
		}
	}
	c := checkBalanced(t, p) // no Wait: nothing was started that could still be running
	if calls != 3 || c.Issued != 3 || c.Won != 3 {
		t.Fatalf("%d transport calls, counters %+v; want 3 issued and won", calls, c)
	}
}

// TestAllocGateUnhedgedLivePool bounds what Pool.Exchange itself
// allocates per query in cmd/recursor's default configuration: the
// query re-advertised at the ladder's payload size (a Message and its
// EDNS), and nothing for a race that cannot happen — the goroutine,
// channel and closure of the concurrent path made it 5. bench/layers'
// upstreams.exchange_allocs row is this plus the 8 objects of the
// answer its transport builds.
func TestAllocGateUnhedgedLivePool(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	q := query(1)
	p := livePool(t, &cannedTransport{resp: answer(q)}, Upstream{Addr: upA})
	got := testing.AllocsPerRun(200, func() {
		if _, _, err := p.Exchange(cli, q); err != nil {
			t.Fatal(err)
		}
	})
	if got > 2 {
		t.Fatalf("Pool.Exchange allocates %.0f objects per query over a transport that allocates none, want <= 2", got)
	}
}
