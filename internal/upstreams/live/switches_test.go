package live

import (
	"net"
	"net/netip"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
)

// delayedHandler answers every A query after delay.
type delayedHandler struct{ delay atomic.Int64 }

func (h *delayedHandler) HandleDNS(_ netip.Addr, q *dnswire.Message) *dnswire.Message {
	time.Sleep(time.Duration(h.delay.Load()))
	resp := dnswire.NewResponse(q)
	resp.Answers = append(resp.Answers, dnswire.RR{
		Name: q.Question().Name, Class: dnswire.ClassINET, TTL: 30,
		Data: &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.7")},
	})
	return resp
}

func switchQuery(i int) *dnswire.Message {
	q := dnswire.NewQuery(uint16(i+1), "switch.live.test.", dnswire.TypeA)
	q.EDNS = dnswire.NewEDNS()
	return q
}

// TestNewPoolSwitches checks that NewPool's three switches reach the pool
// it builds: each one, turned from cmd/recursor's default, starts or
// stops the counter its mechanism drives.
func TestNewPoolSwitches(t *testing.T) {
	t.Run("hedge", func(t *testing.T) {
		for _, hedge := range []bool{false, true} {
			// The primary sits in tier 0, so it is picked first every
			// time; a hedge can only go to the tier-1 member.
			primary := &delayedHandler{}
			spec := serveOneWorker(t, primary).String() + "/0," + serveOneWorker(t, &delayedHandler{}).String() + "/1"
			pool, udp, err := NewPool(spec, hedge, true, true)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(udp.Close)
			// Fast answers fill the sampler, so the hedge delay drops
			// from its 2s cap to its 10ms floor; then the primary turns
			// slow.
			for i := 0; i < 4; i++ {
				if i == 3 {
					primary.delay.Store(int64(300 * time.Millisecond))
				}
				if _, _, err := pool.Exchange(netip.MustParseAddr("127.0.0.1"), switchQuery(i)); err != nil {
					t.Fatalf("hedge=%v, query %d: %v", hedge, i, err)
				}
			}
			pool.Wait()
			if c := pool.Counters(); hedge != (c.Hedges > 0) || !c.Balanced() {
				t.Errorf("hedge=%v behind a slow primary: %+v", hedge, c)
			}
		}
	})

	t.Run("breaker and ladder", func(t *testing.T) {
		if runtime.GOOS != "linux" {
			t.Skip("relies on Linux delivering ICMP errors to connected UDP sockets")
		}
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		closed := pc.LocalAddr().String()
		pc.Close()
		for _, tc := range []struct{ breaker, ladder bool }{{true, true}, {false, true}, {true, false}} {
			pool, udp, err := NewPool(closed, false, tc.breaker, tc.ladder)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(udp.Close)
			// Every attempt is refused at once: five trip a breaker, and
			// the first steps the ladder down a rung.
			for i := 0; i < 5; i++ {
				if _, _, err := pool.Exchange(netip.MustParseAddr("127.0.0.1"), switchQuery(i)); err == nil {
					t.Fatalf("%+v: a closed port answered", tc)
				}
			}
			c := pool.Counters()
			if tc.breaker != (c.BreakerTrips > 0) || tc.ladder != (c.LadderSteps > 0) {
				t.Errorf("%+v against a closed port: %+v", tc, c)
			}
		}
	})
}
