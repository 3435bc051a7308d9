package scanner

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"ecsdns/internal/dnsclient"
	"ecsdns/internal/dnsserver"
	"ecsdns/internal/dnswire"
)

// simTargetHandler stands in for a population of open resolvers behind
// one in-process dnsserver: it answers every probe after a simulated
// network round-trip delay, which is what makes concurrency pay off the
// way it does against real targets. A zero delay turns the benchmark
// into a raw transport-throughput measurement — the loopback stand-in
// for ZDNS-class scan rates — where the codec and pipeline hot paths
// dominate instead of the simulated RTT.
type simTargetHandler struct {
	delay time.Duration
}

func (h simTargetHandler) HandleDNS(_ netip.Addr, q *dnswire.Message) *dnswire.Message {
	if h.delay > 0 {
		time.Sleep(h.delay) //ecslint:ignore wallclock benchmark models per-probe latency with real sleeps
	}
	resp := dnswire.NewResponse(q)
	resp.Answers = append(resp.Answers, dnswire.RR{
		Name: q.Question().Name, TTL: 60,
		Data: &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.53")},
	})
	return resp
}

// scanBenchCase is one point in the (delay, concurrency, shards, batch)
// grid BenchmarkScanThroughput sweeps.
type scanBenchCase struct {
	name        string
	delay       time.Duration
	concurrency int
	pipe        dnsclient.PipelineConfig
}

// BenchmarkScanThroughput measures full 1000-target scans through the
// pipelined transport against the in-process dnsserver.
//
// The delayed cases model a real campaign: each simulated target costs
// a 1 ms round trip, so the serial baseline is ≈ 1 s/op and concurrency
// 64 should be well over 5× faster. The raw cases drop the simulated
// RTT entirely and sweep the transport dimension this package's
// throughput rests on — one shard vs a per-CPU set. Run with:
//
//	go test -bench ScanThroughput -benchtime 3x ./internal/scanner
func BenchmarkScanThroughput(b *testing.B) {
	const timeout = 5 * time.Second
	cases := []scanBenchCase{
		{name: "serial", delay: time.Millisecond, concurrency: 1,
			pipe: dnsclient.PipelineConfig{Shards: 8, Timeout: timeout}},
		{name: "concurrency64", delay: time.Millisecond, concurrency: 64,
			pipe: dnsclient.PipelineConfig{Shards: 8, Timeout: timeout}},
		{name: "raw/shards1", delay: 0, concurrency: 64,
			pipe: dnsclient.PipelineConfig{Shards: 1, Timeout: timeout}},
		{name: "raw/sharded", delay: 0, concurrency: 64,
			pipe: dnsclient.PipelineConfig{Timeout: timeout}}, // Shards: GOMAXPROCS
	}

	targets := make([]netip.Addr, 1000)
	for i := range targets {
		targets[i] = netip.AddrFrom4([4]byte{10, 42, byte(i >> 8), byte(i)})
	}

	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			srv := dnsserver.New(simTargetHandler{delay: bc.delay})
			bound, err := srv.Start("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			server := bound.String()

			pipe, err := dnsclient.NewPipeline(bc.pipe)
			if err != nil {
				b.Fatal(err)
			}
			defer pipe.Close()
			scan := &Scan{
				// Every fake target routes to the one loopback server;
				// the probe name still encodes the target, so demux and
				// log association behave as in a real campaign.
				Exchange: func(ctx context.Context, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
					return pipe.Exchange(ctx, server, q)
				},
				Zone:        "scan.example.org.",
				Concurrency: bc.concurrency,
			}
			logs := &LogBuffer{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := scan.Run(targets, logs)
				if len(res.Responding) != len(targets) {
					b.Fatalf("responding = %d, want %d", len(res.Responding), len(targets))
				}
			}
			b.StopTimer()
			qps := float64(len(targets)) * float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(qps, "queries/s")
			// The server side must account for every probe: a scan bench
			// that leaks or double-counts queries is not measuring a
			// working transport.
			if st := srv.Stats(); !st.Balanced() {
				b.Fatalf("server accounting unbalanced after scan: %+v", st)
			}
		})
	}
}
