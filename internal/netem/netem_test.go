package netem

import (
	"errors"
	"net/netip"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/geo"
)

func testWorld() *geo.Internet {
	return geo.Build(geo.Config{Seed: 1, NumASes: 80, BlocksPerAS: 1})
}

func TestClock(t *testing.T) {
	c := NewClock(SimStart)
	if !c.Now().Equal(SimStart) {
		t.Fatal("clock not at start")
	}
	c.Advance(5 * time.Second)
	if got := c.Now().Sub(SimStart); got != 5*time.Second {
		t.Fatalf("after Advance: %v", got)
	}
	c.Advance(-time.Hour)
	if got := c.Now().Sub(SimStart); got != 5*time.Second {
		t.Fatalf("negative Advance moved clock: %v", got)
	}
	c.Set(SimStart.Add(10 * time.Second))
	if got := c.Now().Sub(SimStart); got != 10*time.Second {
		t.Fatalf("Set: %v", got)
	}
	c.Set(SimStart) // backwards: ignored
	if got := c.Now().Sub(SimStart); got != 10*time.Second {
		t.Fatalf("backwards Set moved clock: %v", got)
	}
}

func TestExchangeDeliversAndTimes(t *testing.T) {
	w := testWorld()
	n := New(w)
	server := w.AddrInCity(geo.CityIndex("Chicago"), 0, 1)
	client := w.AddrInCity(geo.CityIndex("Cleveland"), 0, 2)
	n.Register(server, HandlerFunc(func(from netip.Addr, q *dnswire.Message) *dnswire.Message {
		if from != client {
			t.Errorf("handler saw from=%s", from)
		}
		r := dnswire.NewResponse(q)
		r.RCode = dnswire.RCodeNXDomain
		return r
	}))
	q := dnswire.NewQuery(1, "x.example.", dnswire.TypeA)
	before := n.Clock().Now()
	resp, rtt, err := n.Exchange(client, server, q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeNXDomain || resp.ID != 1 {
		t.Fatalf("bad response: %v", resp)
	}
	if rtt <= 0 {
		t.Fatal("nonpositive RTT")
	}
	if got := n.Clock().Now().Sub(before); got != rtt {
		t.Fatalf("clock advanced %v, RTT %v", got, rtt)
	}
}

func TestExchangeNoRoute(t *testing.T) {
	n := New(testWorld())
	_, _, err := n.Exchange(netip.MustParseAddr("1.0.0.1"), netip.MustParseAddr("1.0.0.2"),
		dnswire.NewQuery(1, "x.", dnswire.TypeA))
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

func TestExchangeDrop(t *testing.T) {
	w := testWorld()
	n := New(w)
	server := w.AddrInCity(0, 0, 1)
	n.Register(server, HandlerFunc(func(netip.Addr, *dnswire.Message) *dnswire.Message {
		return nil
	}))
	_, rtt, err := n.Exchange(w.AddrInCity(1, 0, 1), server, dnswire.NewQuery(1, "x.", dnswire.TypeA))
	if !errors.Is(err, ErrDropped) {
		t.Fatalf("err = %v, want ErrDropped", err)
	}
	if rtt <= 0 {
		t.Fatal("drop must still cost time")
	}
}

func TestRTTTracksDistance(t *testing.T) {
	w := testWorld()
	n := New(w)
	cle := w.AddrInCity(geo.CityIndex("Cleveland"), 0, 1)
	chi := w.AddrInCity(geo.CityIndex("Chicago"), 0, 1)
	tok := w.AddrInCity(geo.CityIndex("Tokyo"), 0, 1)
	if n.RTT(cle, chi) >= n.RTT(cle, tok) {
		t.Fatalf("RTT(Cleveland,Chicago)=%v should be < RTT(Cleveland,Tokyo)=%v",
			n.RTT(cle, chi), n.RTT(cle, tok))
	}
	// Unknown endpoints fall back to base RTT.
	unknown := netip.MustParseAddr("203.0.113.1")
	base := time.Duration(geo.BaseRTTMillis * float64(time.Millisecond))
	if got := n.RTT(cle, unknown); got != base {
		t.Fatalf("RTT to unknown = %v, want base %v", got, base)
	}
}

func TestNestedExchange(t *testing.T) {
	// A resolver node that, when queried, itself queries an upstream
	// before answering; the clock must accumulate both paths.
	w := testWorld()
	n := New(w)
	upstream := w.AddrInCity(geo.CityIndex("Frankfurt"), 0, 1)
	mid := w.AddrInCity(geo.CityIndex("London"), 0, 1)
	client := w.AddrInCity(geo.CityIndex("Dublin"), 0, 1)
	n.Register(upstream, HandlerFunc(func(_ netip.Addr, q *dnswire.Message) *dnswire.Message {
		return dnswire.NewResponse(q)
	}))
	n.Register(mid, HandlerFunc(func(_ netip.Addr, q *dnswire.Message) *dnswire.Message {
		resp, _, err := n.Exchange(mid, upstream, q)
		if err != nil {
			t.Errorf("nested exchange: %v", err)
			return nil
		}
		return resp
	}))
	before := n.Clock().Now()
	_, rtt, err := n.Exchange(client, mid, dnswire.NewQuery(9, "nested.example.", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	elapsed := n.Clock().Now().Sub(before)
	if elapsed <= rtt {
		t.Fatalf("elapsed %v should exceed single-hop RTT %v", elapsed, rtt)
	}
}

func TestWireTap(t *testing.T) {
	w := testWorld()
	n := New(w)
	server := w.AddrInCity(0, 0, 1)
	n.Register(server, HandlerFunc(func(_ netip.Addr, q *dnswire.Message) *dnswire.Message {
		return dnswire.NewResponse(q)
	}))
	var events []Event
	n.WireTap = func(ev Event) { events = append(events, ev) }
	client := w.AddrInCity(1, 0, 1)
	if _, _, err := n.Exchange(client, server, dnswire.NewQuery(2, "tap.example.", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("tap saw %d events", len(events))
	}
	if events[0].From != client || events[0].To != server || events[0].Response == nil {
		t.Fatalf("tap event wrong: %+v", events[0])
	}
}

func TestRegisterNilDetaches(t *testing.T) {
	w := testWorld()
	n := New(w)
	addr := w.AddrInCity(0, 0, 1)
	n.Register(addr, HandlerFunc(func(_ netip.Addr, q *dnswire.Message) *dnswire.Message {
		return dnswire.NewResponse(q)
	}))
	n.Register(addr, nil)
	_, _, err := n.Exchange(w.AddrInCity(1, 0, 1), addr, dnswire.NewQuery(1, "x.", dnswire.TypeA))
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v after detach", err)
	}
}

func TestInjectedLoss(t *testing.T) {
	w := testWorld()
	n := New(w)
	server := w.AddrInCity(0, 0, 1)
	n.Register(server, HandlerFunc(func(_ netip.Addr, q *dnswire.Message) *dnswire.Message {
		return dnswire.NewResponse(q)
	}))
	client := w.AddrInCity(1, 0, 1)

	// Full loss: every exchange fails with ErrLost and costs a timeout.
	n.SetFaults(FaultPlan{Loss: 1.0}, 1)
	before := n.Clock().Now()
	_, _, err := n.Exchange(client, server, dnswire.NewQuery(1, "x.", dnswire.TypeA))
	if !errors.Is(err, ErrLost) {
		t.Fatalf("err = %v, want ErrLost", err)
	}
	if n.Clock().Now().Sub(before) != time.Second {
		t.Fatal("lost exchange must cost a timeout")
	}

	// Partial loss: deterministic per seed, some exchanges succeed.
	n.SetFaults(FaultPlan{Loss: 0.5}, 2)
	okCount, lostCount := 0, 0
	for i := 0; i < 100; i++ {
		_, _, err := n.Exchange(client, server, dnswire.NewQuery(uint16(i), "x.", dnswire.TypeA))
		if err == nil {
			okCount++
		} else if errors.Is(err, ErrLost) {
			lostCount++
		}
	}
	if okCount < 30 || lostCount < 30 {
		t.Fatalf("50%% loss produced %d ok / %d lost", okCount, lostCount)
	}

	// Disabled loss restores reliability.
	n.SetFaults(FaultPlan{}, 0)
	if _, _, err := n.Exchange(client, server, dnswire.NewQuery(1, "x.", dnswire.TypeA)); err != nil {
		t.Fatalf("loss disabled but exchange failed: %v", err)
	}
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from netip.Addr, query *dnswire.Message) *dnswire.Message

// HandleDNS implements Handler.
func (f HandlerFunc) HandleDNS(from netip.Addr, query *dnswire.Message) *dnswire.Message {
	return f(from, query)
}
