package upstreams

import (
	"errors"
	"sort"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
)

// lossyEveryN returns a script that deterministically loses every n-th
// exchange at lossCost and answers the rest at cost — a fixed loss
// pattern so benchmark runs are comparable.
func lossyEveryN(n int, cost, lossCost time.Duration) scriptFn {
	calls := 0
	return func(q *dnswire.Message, _ bool) (*dnswire.Message, time.Duration, error) {
		calls++
		if calls%n == 0 {
			return nil, lossCost, errDropped
		}
		return answer(q), cost, nil
	}
}

// wedgedPool returns a pool whose every breaker breakerFailures failed
// queries have opened, and its transport.
func wedgedPool(tb testing.TB) (*Pool, *fakeTransport) {
	tb.Helper()
	tr := newFakeTransport()
	clk := newFakeClock()
	p, err := New(Config{
		Upstreams: []Upstream{{Addr: upA}, {Addr: upB}, {Addr: upC}},
		Transport: tr, Now: clk.Now,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tr.set(upA, fails(time.Millisecond))
	tr.set(upB, fails(time.Millisecond))
	tr.set(upC, fails(time.Millisecond))
	for i := 0; i < breakerFailures; i++ {
		if _, _, err := p.Exchange(cli, query(uint16(i+1))); err == nil {
			tb.Fatal("tripping query answered")
		}
	}
	return p, tr
}

// BenchmarkBreakerFastFail measures the pool's refusal path: every
// breaker is open, so Exchange must fail fast without touching any
// transport — the cost a wedged pool adds to each query.
func BenchmarkBreakerFastFail(b *testing.B) {
	p, _ := wedgedPool(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Exchange(cli, query(uint16(i))); err == nil {
			b.Fatal("open breakers answered")
		}
	}
}

// TestAllocGateBreakerFastFail holds the refusal path to what the
// benchmark reads, where everyone runs it: a wedged pool answers with
// ErrAllUnhealthy from its own bookkeeping — no transport call and no
// allocation. (The benchmark's 2 allocs/op are its NewQuery per
// iteration; the query here is built once, outside the measured func.)
func TestAllocGateBreakerFastFail(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p, tr := wedgedPool(t)
	tripped := len(tr.calls())
	q := query(2)
	got := testing.AllocsPerRun(200, func() {
		if _, _, err := p.Exchange(cli, q); !errors.Is(err, ErrAllUnhealthy) {
			t.Fatalf("wedged pool: err = %v, want ErrAllUnhealthy", err)
		}
	})
	if got > 0 {
		t.Errorf("a wedged pool's Exchange allocates %.0f objects per query, want 0", got)
	}
	if n := len(tr.calls()); n != tripped {
		t.Errorf("a wedged pool reached its transport %d times", n-tripped)
	}
}

// BenchmarkPoolHedging runs the sequential pool over a deterministic
// every-3rd-exchange-lost transport with hedging off and on. ns/op is
// the pool's bookkeeping overhead (the transport is in-memory); the
// virtual latency distribution of the modeled completions is reported
// as p50/p99 in milliseconds, which is where hedging shows up.
func BenchmarkPoolHedging(b *testing.B) {
	for _, mode := range []struct {
		name  string
		hedge bool
	}{
		{"unhedged", false},
		{"hedged", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			tr := newFakeTransport()
			clk := newFakeClock()
			p, err := New(Config{
				Upstreams: []Upstream{{Addr: upA}, {Addr: upB}, {Addr: upC}},
				Transport: tr, Now: clk.Now,
				Hedge:          mode.hedge,
				DisableBreaker: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			tr.set(upA, lossyEveryN(3, 20*time.Millisecond, time.Second))
			tr.set(upB, lossyEveryN(3, 25*time.Millisecond, time.Second))
			tr.set(upC, lossyEveryN(3, 30*time.Millisecond, time.Second))
			// Warm the RTT sampler so the hedge delay is adaptive, not
			// the cold-start maximum. Losses that align across all
			// three upstreams surface as errors; their modeled cost
			// still belongs in the distribution.
			for i := 0; i < samplerSize; i++ {
				p.Exchange(cli, query(uint16(i))) //nolint:errcheck
			}
			durs := make([]time.Duration, 0, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, d, _ := p.Exchange(cli, query(uint16(i)))
				durs = append(durs, d)
			}
			b.StopTimer()
			sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
			pct := func(p float64) float64 {
				return float64(durs[int(p*float64(len(durs)-1))]) / float64(time.Millisecond)
			}
			b.ReportMetric(pct(0.50), "p50-virtual-ms")
			b.ReportMetric(pct(0.99), "p99-virtual-ms")
			if !p.Counters().Balanced() {
				b.Fatal("accounting leak under benchmark load")
			}
		})
	}
}
