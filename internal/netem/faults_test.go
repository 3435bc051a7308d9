package netem

import (
	"errors"
	"net/netip"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/geo"
)

// faultRig registers one echoing server and returns (network, client,
// server) for fault tests.
func faultRig(t *testing.T) (*Network, netip.Addr, netip.Addr) {
	t.Helper()
	w := testWorld()
	n := New(w)
	server := w.AddrInCity(geo.CityIndex("Chicago"), 0, 1)
	n.Register(server, HandlerFunc(func(_ netip.Addr, q *dnswire.Message) *dnswire.Message {
		r := dnswire.NewResponse(q)
		r.Answers = []dnswire.RR{{
			Name: q.Question().Name, Class: dnswire.ClassINET, TTL: 30,
			Data: &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.1")},
		}}
		return r
	}))
	return n, w.AddrInCity(geo.CityIndex("Cleveland"), 0, 2), server
}

func TestFaultTruncation(t *testing.T) {
	n, client, server := faultRig(t)
	n.SetFaults(FaultPlan{Truncate: 1.0}, 1)
	resp, _, err := n.Exchange(client, server, dnswire.NewQuery(1, "x.example.", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated || len(resp.Answers) != 0 {
		t.Fatalf("want truncated empty response, got TC=%v answers=%d", resp.Truncated, len(resp.Answers))
	}
	if resp.ID != 1 || resp.Question().Name != "x.example." {
		t.Fatalf("truncation must preserve ID and question: %v", resp)
	}
	if st := n.FaultStats(); st.Truncated != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFaultTruncationShape is the regression test for the bare-TC=1
// shape: injected truncation must clear the AA and AD bits and strip
// EDNS along with the record sections, since a real size-limited server
// sends back a bare header.
func TestFaultTruncationShape(t *testing.T) {
	n, client, server := faultRig(t)
	n.Register(server, HandlerFunc(func(_ netip.Addr, q *dnswire.Message) *dnswire.Message {
		r := dnswire.NewResponse(q)
		r.Authoritative = true
		r.AuthenticData = true
		r.EDNS = dnswire.NewEDNS()
		r.Answers = []dnswire.RR{{
			Name: q.Question().Name, Class: dnswire.ClassINET, TTL: 30,
			Data: &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.1")},
		}}
		return r
	}))
	n.SetFaults(FaultPlan{Truncate: 1.0}, 1)
	resp, _, err := n.Exchange(client, server, dnswire.NewQuery(9, "x.example.", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated {
		t.Fatal("TC bit not set")
	}
	if resp.Authoritative || resp.AuthenticData {
		t.Fatalf("truncated response kept AA=%v AD=%v; want both cleared", resp.Authoritative, resp.AuthenticData)
	}
	if resp.EDNS != nil {
		t.Fatal("truncated response kept its OPT record")
	}
	if len(resp.Answers) != 0 || len(resp.Authorities) != 0 || len(resp.Additionals) != 0 {
		t.Fatalf("truncated response kept records: %v", resp)
	}
}

func TestFaultPayloadTruncation(t *testing.T) {
	n, client, server := faultRig(t)
	n.SetFaults(FaultPlan{Payload: 3000}, 1)

	// No EDNS: the classic 512-byte budget, so a 3000-byte response
	// comes back as a bare TC=1.
	resp, _, err := n.Exchange(client, server, dnswire.NewQuery(1, "x.example.", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated || resp.EDNS != nil || len(resp.Answers) != 0 {
		t.Fatalf("want bare TC=1 for undersized buffer, got %v", resp)
	}

	// A 4096-byte EDNS buffer fits the inflated response: intact answer.
	q := dnswire.NewQuery(2, "x.example.", dnswire.TypeA)
	q.EDNS = dnswire.NewEDNS()
	resp, _, err = n.Exchange(client, server, q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Truncated || len(resp.Answers) != 1 {
		t.Fatalf("big buffer should pass intact, got %v", resp)
	}

	// A 1232-byte buffer is again too small.
	q = dnswire.NewQuery(3, "x.example.", dnswire.TypeA)
	q.EDNS = &dnswire.EDNS{UDPSize: 1232}
	resp, _, err = n.Exchange(client, server, q)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated {
		t.Fatalf("1232 buffer vs 3000 payload should truncate, got %v", resp)
	}
	if st := n.FaultStats(); st.SizeTruncated != 2 || st.Truncated != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFaultFragLoss(t *testing.T) {
	n, client, server := faultRig(t)
	n.SetFaults(FaultPlan{Payload: 3000, FragLoss: 1.0}, 1)
	q := dnswire.NewQuery(1, "x.example.", dnswire.TypeA)
	q.EDNS = dnswire.NewEDNS() // 4096: big enough, so fragmentation applies
	before := n.Clock().Now()
	resp, cost, err := n.Exchange(client, server, q)
	if !errors.Is(err, ErrLost) || resp != nil {
		t.Fatalf("want ErrLost, got resp=%v err=%v", resp, err)
	}
	if cost != lossTimeout {
		t.Fatalf("frag drop cost = %v, want the %v loss timeout", cost, lossTimeout)
	}
	if got := n.Clock().Now().Sub(before); got != cost {
		t.Fatalf("clock advanced %v, cost %v", got, cost)
	}
	st := n.FaultStats()
	if st.FragDrops != 1 || st.Lost != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// Below the fragmentation threshold no drop applies even at p=1.
	n.SetFaults(FaultPlan{Payload: 1300, FragLoss: 1.0}, 2)
	if _, _, err := n.Exchange(client, server, q); err != nil {
		t.Fatalf("sub-threshold payload dropped: %v", err)
	}
	// And a custom threshold brings it back.
	n.SetFaults(FaultPlan{Payload: 1300, FragLoss: 1.0, FragThreshold: 1200}, 3)
	if _, _, err := n.Exchange(client, server, q); !errors.Is(err, ErrLost) {
		t.Fatalf("custom threshold not honored: %v", err)
	}
}

func TestFaultTCPImmunity(t *testing.T) {
	n, client, server := faultRig(t)
	n.SetFaults(FaultPlan{Payload: 3000, FragLoss: 1.0, Truncate: 1.0, Corrupt: 1.0}, 1)
	q := dnswire.NewQuery(5, "x.example.", dnswire.TypeA)
	resp, _, err := n.ExchangeTCP(client, server, q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Truncated || resp.ID != q.ID || len(resp.Answers) != 1 {
		t.Fatalf("TCP exchange hit a UDP-only fault: %v", resp)
	}
	if st := n.FaultStats(); st.SizeTruncated != 0 || st.FragDrops != 0 || st.Truncated != 0 || st.Corrupted != 0 {
		t.Fatalf("stats = %+v", st)
	}

	// SERVFAIL injection and loss still apply on the stream path.
	n.SetFaults(FaultPlan{ServFail: 1.0}, 2)
	resp, _, err = n.ExchangeTCP(client, server, q)
	if err != nil || resp.RCode != dnswire.RCodeServFail {
		t.Fatalf("TCP servfail injection: resp=%v err=%v", resp, err)
	}
	n.SetFaults(FaultPlan{Loss: 1.0}, 3)
	if _, _, err := n.ExchangeTCP(client, server, q); !errors.Is(err, ErrLost) {
		t.Fatalf("TCP loss injection: %v", err)
	}
}

func TestFaultServFail(t *testing.T) {
	n, client, server := faultRig(t)
	n.SetFaults(FaultPlan{ServFail: 1.0}, 1)
	resp, _, err := n.Exchange(client, server, dnswire.NewQuery(2, "x.example.", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeServFail || len(resp.Answers) != 0 {
		t.Fatalf("want injected SERVFAIL, got %v", resp)
	}
	if st := n.FaultStats(); st.ServFails != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFaultCorruptionFlipsID(t *testing.T) {
	n, client, server := faultRig(t)
	n.SetFaults(FaultPlan{Corrupt: 1.0}, 1)
	q := dnswire.NewQuery(7, "x.example.", dnswire.TypeA)
	resp, _, err := n.Exchange(client, server, q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID == q.ID {
		t.Fatal("corrupted response kept a matching ID")
	}
	if st := n.FaultStats(); st.Corrupted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFaultBlackoutWindow(t *testing.T) {
	n, client, server := faultRig(t)
	start := n.Clock().Now()
	n.SetFaults(FaultPlan{Blackouts: []Window{
		{Start: start.Add(10 * time.Second), End: start.Add(20 * time.Second)},
	}}, 1)
	q := dnswire.NewQuery(1, "x.example.", dnswire.TypeA)
	if _, _, err := n.Exchange(client, server, q); err != nil {
		t.Fatalf("before blackout: %v", err)
	}
	n.Clock().Set(start.Add(15 * time.Second))
	if _, _, err := n.Exchange(client, server, q); !errors.Is(err, ErrLost) {
		t.Fatalf("inside blackout: err = %v, want ErrLost", err)
	}
	n.Clock().Set(start.Add(25 * time.Second))
	if _, _, err := n.Exchange(client, server, q); err != nil {
		t.Fatalf("after blackout: %v", err)
	}
	st := n.FaultStats()
	if st.Blackouts != 1 || st.Lost != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFaultLatencyAndJitter(t *testing.T) {
	n, client, server := faultRig(t)
	base := n.RTT(client, server)
	q := dnswire.NewQuery(1, "x.example.", dnswire.TypeA)

	n.SetFaults(FaultPlan{Latency: 40 * time.Millisecond}, 1)
	before := n.Clock().Now()
	_, rtt, err := n.Exchange(client, server, q)
	if err != nil {
		t.Fatal(err)
	}
	if rtt != base+40*time.Millisecond {
		t.Fatalf("rtt = %v, want base %v + 40ms", rtt, base)
	}
	if got := n.Clock().Now().Sub(before); got != rtt {
		t.Fatalf("clock advanced %v, rtt %v", got, rtt)
	}

	n.SetFaults(FaultPlan{Jitter: 30 * time.Millisecond}, 2)
	_, rtt, err = n.Exchange(client, server, q)
	if err != nil {
		t.Fatal(err)
	}
	if rtt < base || rtt >= base+30*time.Millisecond {
		t.Fatalf("jittered rtt = %v outside [base, base+30ms)", rtt)
	}
	st := n.FaultStats()
	if st.Delayed != 2 || st.ExtraLatency < 40*time.Millisecond {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPerNodeFaultsCompose(t *testing.T) {
	w := testWorld()
	n := New(w)
	echo := HandlerFunc(func(_ netip.Addr, q *dnswire.Message) *dnswire.Message {
		return dnswire.NewResponse(q)
	})
	flaky := w.AddrInCity(0, 0, 1)
	solid := w.AddrInCity(1, 0, 1)
	n.Register(flaky, echo)
	n.Register(solid, echo)
	client := w.AddrInCity(2, 0, 1)
	n.SetNodeFaults(flaky, FaultPlan{ServFail: 1.0}, 3)

	q := dnswire.NewQuery(1, "x.", dnswire.TypeA)
	resp, _, err := n.Exchange(client, flaky, q)
	if err != nil || resp.RCode != dnswire.RCodeServFail {
		t.Fatalf("faulted node: resp=%v err=%v", resp, err)
	}
	resp, _, err = n.Exchange(client, solid, q)
	if err != nil || resp.RCode != dnswire.RCodeNoError {
		t.Fatalf("clean node hit by node fault: resp=%v err=%v", resp, err)
	}

	// Global + node plans compose: global loss applies to both nodes.
	n.SetFaults(FaultPlan{Loss: 1.0}, 4)
	if _, _, err := n.Exchange(client, solid, q); !errors.Is(err, ErrLost) {
		t.Fatalf("global loss not applied: %v", err)
	}
	n.SetNodeFaults(flaky, FaultPlan{}, 0) // clear
	n.SetFaults(FaultPlan{}, 0)
	if _, _, err := n.Exchange(client, flaky, q); err != nil {
		t.Fatalf("cleared plans still inject: %v", err)
	}
}

func TestFaultDeterminism(t *testing.T) {
	trace := func() []string {
		n, client, server := faultRig(t)
		n.SetFaults(FaultPlan{Loss: 0.3, Truncate: 0.2, ServFail: 0.2, Corrupt: 0.1, Jitter: 10 * time.Millisecond}, 42)
		var out []string
		for i := 0; i < 200; i++ {
			q := dnswire.NewQuery(uint16(i), "d.example.", dnswire.TypeA)
			resp, rtt, err := n.Exchange(client, server, q)
			switch {
			case err != nil:
				out = append(out, "lost")
			case resp.Truncated:
				out = append(out, "trunc")
			case resp.RCode == dnswire.RCodeServFail:
				out = append(out, "servfail")
			case resp.ID != q.ID:
				out = append(out, "corrupt")
			default:
				out = append(out, rtt.String())
			}
		}
		return out
	}
	a, b := trace(), trace()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestParseFaultPlan(t *testing.T) {
	p, err := ParseFaultPlan("loss=0.1, latency=30ms,jitter=10ms,truncate=0.2,servfail=0.15,corrupt=0.05,blackout=2m+30s,blackout=10m+1m,payload=3000,fragloss=0.9,fragthreshold=1200")
	if err != nil {
		t.Fatal(err)
	}
	if p.Loss != 0.1 || p.Latency != 30*time.Millisecond || p.Jitter != 10*time.Millisecond ||
		p.Truncate != 0.2 || p.ServFail != 0.15 || p.Corrupt != 0.05 ||
		p.Payload != 3000 || p.FragLoss != 0.9 || p.FragThreshold != 1200 {
		t.Fatalf("parsed plan = %+v", p)
	}
	if len(p.Blackouts) != 2 {
		t.Fatalf("blackouts = %v", p.Blackouts)
	}
	if !p.Blackouts[0].Start.Equal(SimStart.Add(2*time.Minute)) ||
		!p.Blackouts[0].End.Equal(SimStart.Add(2*time.Minute+30*time.Second)) {
		t.Fatalf("blackout window = %+v", p.Blackouts[0])
	}
	if p2, err := ParseFaultPlan("  "); err != nil || !p2.IsZero() {
		t.Fatalf("empty spec: %+v %v", p2, err)
	}
	for _, bad := range []string{
		"loss=2", "loss=x", "frob=1", "latency=-5s", "blackout=10s",
		"blackout=x+y", "loss", "truncate=-0.1",
		"payload=0", "payload=-1", "payload=70000", "payload=big",
		"fragloss=1.5", "fragloss=x", "fragthreshold=0", "fragthreshold=65536",
	} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted", bad)
		}
	}
}
