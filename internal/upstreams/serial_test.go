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
	c := checkCounters(t, p) // no Wait: nothing was started that could still be running
	if calls != 3 || c.Issued != 3 || c.Won != 3 {
		t.Fatalf("%d transport calls, counters %+v; want 3 issued and won", calls, c)
	}
}

// TestAllocGateUnhedgedLivePool bounds what Pool.Exchange itself
// allocates per query in cmd/recursor's default configuration, and
// nothing for a race that cannot happen — the goroutine, channel and
// closure of the concurrent path made it 5. A query that already
// advertises the ladder's first rung, as the resolver's 4096 does, is
// sent as it is: 0. One without EDNS is re-advertised in a clone, a
// Message and its EDNS: 2. bench/layers' upstreams.exchange_allocs row
// is the second plus the 8 objects of the answer its transport builds.
func TestAllocGateUnhedgedLivePool(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	advertised := query(1)
	advertised.EDNS = dnswire.NewEDNS()
	for _, tc := range []struct {
		name string
		q    *dnswire.Message
		want float64
	}{
		{"advertises-4096", advertised, 0},
		{"no-edns", query(1), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := livePool(t, &cannedTransport{resp: answer(tc.q)}, Upstream{Addr: upA})
			got := testing.AllocsPerRun(200, func() {
				if _, _, err := p.Exchange(cli, tc.q); err != nil {
					t.Fatal(err)
				}
			})
			if got > tc.want {
				t.Fatalf("Pool.Exchange allocates %.0f objects per query over a transport that allocates none, want <= %.0f", got, tc.want)
			}
		})
	}
}

// TestWithPayload pins the ladder's query rewrite: a query that already
// advertises the rung's payload is sent as it is, any other goes out as
// a clone advertising it, options carried over, and the caller's message
// is never changed.
func TestWithPayload(t *testing.T) {
	q := query(1)
	q.EDNS = dnswire.NewEDNS()
	q.EDNS.SetOption(dnswire.Option{Code: dnswire.OptionCodeECS, Data: []byte{0, 1, 24, 0, 198, 51, 100}})
	if got := withPayload(q, 4096); got != q {
		t.Fatal("a query already advertising 4096 was cloned for the 4096 rung")
	}
	got := withPayload(q, 1232)
	if got == q || got.EDNS == q.EDNS {
		t.Fatal("the 1232 rung rewrote the caller's query instead of a clone")
	}
	if got.EDNS.UDPSize != 1232 || len(got.EDNS.Options) != 1 || got.Question() != q.Question() {
		t.Fatalf("clone = %v, want the query advertising 1232 with its ECS option", got)
	}
	if q.EDNS.UDPSize != 4096 {
		t.Fatalf("the caller's query now advertises %d", q.EDNS.UDPSize)
	}
	if got := withPayload(query(2), 4096); got.EDNS == nil || got.EDNS.UDPSize != 4096 {
		t.Fatalf("a query without EDNS went out as %v, want one advertising 4096", got)
	}
}
