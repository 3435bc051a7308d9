package netem

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/geo"
)

// TestConcurrentClockAccess races Advance/Set against Now and asserts
// monotonicity: the virtual clock must never be observed moving
// backwards, whatever interleaving -race explores.
func TestConcurrentClockAccess(t *testing.T) {
	clk := NewClock(SimStart)
	const workers = 4
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch {
				case i%3 == 0:
					clk.Advance(time.Duration(w+1) * time.Microsecond)
				case i%7 == 0:
					clk.Set(SimStart.Add(time.Duration(i) * time.Millisecond))
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := SimStart
			for i := 0; i < iters; i++ {
				now := clk.Now()
				if now.Before(last) {
					t.Errorf("clock went backwards: %v after %v", now, last)
					return
				}
				last = now
			}
		}()
	}
	wg.Wait()
	// The largest Set that fires is near iters ms; every Advance adds on
	// top, so well over a second must have accumulated.
	if clk.Now().Before(SimStart.Add(time.Second)) {
		t.Fatalf("clock barely moved: %v", clk.Now())
	}
}

// TestConcurrentFaultReconfiguration exercises the fault layer's locking:
// plans are installed, swapped and cleared from several goroutines while
// exchanges run (the netem fabric serializes handler execution behind a
// mutex, as every concurrent consumer must; the fault API itself is what
// is allowed to race with it).
func TestConcurrentFaultReconfiguration(t *testing.T) {
	w := geo.Build(geo.Config{Seed: 5, NumASes: 40, BlocksPerAS: 1})
	n := New(w)
	server := w.AddrInCity(geo.CityIndex("Frankfurt"), 1, 53)
	n.Register(server, HandlerFunc(func(_ netip.Addr, q *dnswire.Message) *dnswire.Message {
		resp := dnswire.NewResponse(q)
		resp.Answers = []dnswire.RR{{
			Name:  q.Questions[0].Name,
			Class: dnswire.ClassINET, TTL: 30,
			Data: &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.1")},
		}}
		return resp
	}))
	client := w.AddrInCity(geo.CityIndex("London"), 2, 9)

	const iters = 400
	var exMu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // exchanger
		defer wg.Done()
		for i := 0; i < iters; i++ {
			q := dnswire.NewQuery(uint16(i+1), "stress.example.", dnswire.TypeA)
			exMu.Lock()
			resp, _, err := n.Exchange(client, server, q)
			exMu.Unlock()
			if err == nil && resp == nil {
				t.Error("nil response without error")
				return
			}
		}
	}()
	go func() { // global plan churner
		defer wg.Done()
		for i := 0; i < iters; i++ {
			switch i % 3 {
			case 0:
				n.SetFaults(FaultPlan{Loss: 0.2, Latency: time.Millisecond}, int64(i))
			case 1:
				n.SetFaults(FaultPlan{ServFail: 0.3}, int64(i))
			default:
				n.SetFaults(FaultPlan{}, 0)
			}
		}
	}()
	go func() { // per-node plan churner + stats reader
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if i%2 == 0 {
				n.SetNodeFaults(server, FaultPlan{Truncate: 0.4}, int64(i))
			} else {
				n.SetNodeFaults(server, FaultPlan{}, 0)
			}
			s := n.FaultStats()
			if s.Lost < 0 || s.Truncated < 0 {
				t.Errorf("negative fault stats: %+v", s)
				return
			}
		}
	}()
	wg.Wait()
}
