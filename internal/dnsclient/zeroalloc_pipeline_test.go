package dnsclient

import (
	"context"
	"io"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
)

// startEchoResponder starts a raw UDP responder that reflects every
// datagram back with the QR bit set — the cheapest wire-valid DNS
// "response" to the query that was sent. The loop performs no heap
// allocations, which matters because testing.AllocsPerRun counts
// mallocs across every goroutine, responder included. seen, when
// non-nil, is called with the source of every datagram echoed.
func startEchoResponder(t testing.TB, seen func(src netip.AddrPort)) netip.AddrPort {
	t.Helper()
	pc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b := make([]byte, 2048)
		for {
			n, src, err := pc.ReadFromUDPAddrPort(b)
			if err != nil {
				return
			}
			if n < 12 {
				continue
			}
			if seen != nil {
				seen(src)
			}
			b[2] |= 0x80 // set QR: the echoed query becomes its own response
			pc.WriteToUDPAddrPort(b[:n], src)
		}
	}()
	t.Cleanup(func() {
		pc.Close()
		wg.Wait()
	})
	return pc.LocalAddr().(*net.UDPAddr).AddrPort()
}

// allocGateQuery builds the scan-shaped query the throughput path
// carries: one question plus an EDNS OPT with an ECS option.
func allocGateQuery(name string) *dnswire.Message {
	q := dnswire.NewQuery(0, dnswire.MustParseName(name), dnswire.TypeA)
	q.EDNS = dnswire.NewEDNS()
	ecsopt.Attach(q, ecsopt.ClientSubnet{
		Family:       ecsopt.FamilyIPv4,
		SourcePrefix: 24,
		Addr:         netip.MustParseAddr("203.0.113.0"),
	})
	return q
}

// gatePipelineExchange is the shared body of the pipeline allocation
// gates: after warmup, a full ExchangeInto round trip (AppendPack,
// register, UDP send, demux, UnpackInto) cycling through queries
// allocates at most want per op.
func gatePipelineExchange(t *testing.T, queries []*dnswire.Message, want float64) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	server := startEchoResponder(t, nil).String()
	p := newTestPipeline(t, PipelineConfig{Timeout: 2 * time.Second})
	resp := &dnswire.Message{}
	next := 0
	exchange := func() {
		q := queries[next%len(queries)]
		next++
		if err := p.ExchangeInto(context.Background(), server, q, resp); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the pools and the slot buffers.
	for i := 0; i < 64; i++ {
		exchange()
	}
	if avg := testing.AllocsPerRun(200, exchange); avg > want {
		t.Fatalf("ExchangeInto allocates %.2f allocs/op, want <= %v", avg, want)
	}
	st := p.Stats()
	if st.Received == 0 || st.Sent != st.Received {
		t.Fatalf("stats after clean run: %+v, want Sent == Received > 0", st)
	}
}

// TestAllocGatePipelineExchange is the send/receive half of the
// allocation regression gate: with one query repeated, the pipeline hot
// path stays at zero allocations per query.
func TestAllocGatePipelineExchange(t *testing.T) {
	gatePipelineExchange(t, []*dnswire.Message{allocGateQuery("gate.pipeline.test.")}, 0)
}

// TestAllocGatePipelineExchangeDistinctNames is the gate for what a scan
// actually sends — a question name no earlier query carried (the probed
// address or a per-trial label is encoded into it). No name repeats
// inside the measured window, yet the response's question name costs
// nothing: the decode is handed the name the query sent, and keeps it.
func TestAllocGatePipelineExchangeDistinctNames(t *testing.T) {
	queries := make([]*dnswire.Message, 512)
	for i := range queries {
		queries[i] = allocGateQuery("p" + itoa(i) + ".gate.pipeline.test.")
	}
	gatePipelineExchange(t, queries, 0)
}

// BenchmarkPipelineExchange measures a full UDP round trip against the
// zero-alloc loopback echo responder.
func BenchmarkPipelineExchange(b *testing.B) {
	server := startEchoResponder(b, nil).String()
	p, err := NewPipeline(PipelineConfig{Timeout: 2 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	q := allocGateQuery("gate.pipeline.test.")
	resp := &dnswire.Message{}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.ExchangeInto(ctx, server, q, resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineSweep measures a scan: one Sweep of b.N probes, 64 in
// flight, against the loopback echo responder. An op is one probe.
func BenchmarkPipelineSweep(b *testing.B) {
	server := startEchoResponder(b, nil)
	p, err := NewPipeline(PipelineConfig{Timeout: 2 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	q := allocGateQuery("gate.pipeline.test.")
	left := b.N
	probe := func(_ int, sq *dnswire.Message) (netip.AddrPort, error) {
		if left == 0 {
			return netip.AddrPort{}, io.EOF
		}
		left--
		*sq = *q // the sweep writes only the ID of the copy
		return server, nil
	}
	done := func(slot int, _ *dnswire.Message, err error) {
		if err != nil {
			b.Fatalf("probe in slot %d: %v", slot, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := p.Sweep(context.Background(), 64, 0, nil, probe, done); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "probes/s")
}
