package dnsserver

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestWorkersStartOnDemand covers the UDP pool's growth rule: workers
// are started as admitted-but-unfinished datagrams outnumber them, up
// to MaxInflight, and never merely because the server started.
func TestWorkersStartOnDemand(t *testing.T) {
	// A closed loop of one runs on one worker — or two, when a query
	// overtakes the previous worker's bookkeeping: the reply leaves
	// before the worker counts itself done.
	t.Run("sequential", func(t *testing.T) {
		srv := New(answering())
		bound, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		conn := udpDial(t, bound.String())
		for i := 0; i < 50; i++ {
			conn.Write(packQuery(t, uint16(i), "www.zone.test."))
			if resp, ok := udpRead(t, conn, time.Second); !ok || resp.ID != uint16(i) {
				t.Fatalf("query %d: reply %v, %v", i, resp, ok)
			}
		}
		if w := srv.Stats().Workers; w < 1 || w > 2 {
			t.Fatalf("50 sequential queries started %d workers, want 1 or 2", w)
		}
	})

	// No stranding: k concurrent queries below the cap each get a
	// worker, so all k are inside the handler before any can finish. A
	// pool that spawned only when nobody looked idle would leave some
	// queued behind the gate.
	t.Run("concurrent", func(t *testing.T) {
		const k = 8
		release := make(chan struct{})
		srv := New(gate(release))
		bound, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		conn := udpDial(t, bound.String())
		for i := 0; i < k; i++ {
			conn.Write(packQuery(t, uint16(i), "www.zone.test."))
		}
		waitStat(t, srv, "all queries in the handler", func(st ServerStats) bool { return st.Inflight == k })
		if w := srv.Stats().Workers; w != k {
			t.Fatalf("%d held queries started %d workers, want %d", k, w, k)
		}
		close(release)
		for i := 0; i < k; i++ {
			if _, ok := udpRead(t, conn, time.Second); !ok {
				t.Fatalf("reply %d of %d missing", i+1, k)
			}
		}
	})

	// A flood stops growing the pool at MaxInflight and sheds the rest.
	t.Run("flood", func(t *testing.T) {
		const flood = 32
		release := make(chan struct{})
		srv := New(gate(release))
		srv.MaxInflight = 4
		bound, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		conn := udpDial(t, bound.String())
		for i := 0; i < flood; i++ {
			conn.Write(packQuery(t, uint16(i), "www.zone.test."))
		}
		waitStat(t, srv, "flood read, pool saturated", func(st ServerStats) bool {
			return st.Received == flood && st.Inflight == 4
		})
		close(release)
		waitStat(t, srv, "flood accounted for", func(st ServerStats) bool {
			return st.Answered+st.Shed == flood && st.Balanced()
		})
		st := srv.Stats()
		if st.Workers != 4 || st.Answered < 4 || st.Answered > 8 {
			t.Fatalf("flood of %d at MaxInflight=4: %s, want workers=4 and 4..8 answered", flood, st)
		}
	})

	// With no traffic there are no workers, and shutdown has nothing
	// but the two loops to wait for.
	t.Run("idle shutdown", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		srv := New(answering())
		if _, err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		if w := srv.Stats().Workers; w != 0 {
			t.Fatalf("idle server started %d workers", w)
		}
		waitBaseline(t, baseline)
	})
}
