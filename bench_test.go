package ecsdns

import (
	"net/netip"
	"testing"

	"ecsdns/internal/cachesim"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
	"ecsdns/internal/traces"
)

// benchConfig keeps each regeneration under a second or two so the full
// bench sweep is practical; the shapes are scale-invariant.
func benchConfig() Config { return Config{Scale: 0.02, Seed: 1} }

// runExp executes one experiment per iteration — each bench regenerates
// its paper artifact end to end.
func runExp(b *testing.B, id string) {
	b.Helper()
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Metrics) == 0 {
			b.Fatal("empty report")
		}
	}
}

// One benchmark per paper table and figure.

func BenchmarkSection4Datasets(b *testing.B)    { runExp(b, "section4") }
func BenchmarkSection5Discovery(b *testing.B)   { runExp(b, "section5") }
func BenchmarkTable1PrefixLengths(b *testing.B) { runExp(b, "table1") }
func BenchmarkSection61Probing(b *testing.B)    { runExp(b, "section6_1") }
func BenchmarkSection63Caching(b *testing.B)    { runExp(b, "section6_3") }
func BenchmarkFig1CacheBlowup(b *testing.B)     { runExp(b, "fig1") }
func BenchmarkFig2BlowupVsClients(b *testing.B) { runExp(b, "fig2") }
func BenchmarkFig3HitRate(b *testing.B)         { runExp(b, "fig3") }
func BenchmarkTable2Unroutable(b *testing.B)    { runExp(b, "table2") }
func BenchmarkFig4HiddenMP(b *testing.B)        { runExp(b, "fig4") }
func BenchmarkFig5HiddenNonMP(b *testing.B)     { runExp(b, "fig5") }
func BenchmarkFig6CDN1Sweep(b *testing.B)       { runExp(b, "fig6") }
func BenchmarkFig7CDN2Sweep(b *testing.B)       { runExp(b, "fig7") }
func BenchmarkFig8Flattening(b *testing.B)      { runExp(b, "fig8") }

// Benches for the §9/§7 extension experiments.

func BenchmarkExtAdaptive(b *testing.B)    { runExp(b, "ext_adaptive") }
func BenchmarkExtECSFraction(b *testing.B) { runExp(b, "ext_ecsfraction") }
func BenchmarkExtEvictions(b *testing.B)   { runExp(b, "ext_evictions") }
func BenchmarkExtLabStudy(b *testing.B)    { runExp(b, "ext_labstudy") }
func BenchmarkExtScale(b *testing.B)       { runExp(b, "ext_scale") }

// Ablation benches for the design choices DESIGN.md calls out.

// BenchmarkAblationCompression quantifies what DNS name compression buys
// on a realistic CDN response.
func BenchmarkAblationCompression(b *testing.B) {
	msg := benchResponse()
	b.Run("compressed", func(b *testing.B) {
		b.ReportAllocs()
		var size int
		for i := 0; i < b.N; i++ {
			data, err := msg.Pack()
			if err != nil {
				b.Fatal(err)
			}
			size = len(data)
		}
		b.ReportMetric(float64(size), "bytes/msg")
	})
	b.Run("uncompressed", func(b *testing.B) {
		b.ReportAllocs()
		var size int
		for i := 0; i < b.N; i++ {
			data, err := msg.PackNoCompress()
			if err != nil {
				b.Fatal(err)
			}
			size = len(data)
		}
		b.ReportMetric(float64(size), "bytes/msg")
	})
}

func benchResponse() *dnswire.Message {
	q := dnswire.NewQuery(1, "video.edge.cdn.example.net.", dnswire.TypeA)
	m := dnswire.NewResponse(q)
	for i := 0; i < 12; i++ {
		m.Answers = append(m.Answers, dnswire.RR{
			Name: "video.edge.cdn.example.net.", Class: dnswire.ClassINET, TTL: 20,
			Data: &dnswire.ARData{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})},
		})
	}
	m.Authorities = append(m.Authorities, dnswire.RR{
		Name: "cdn.example.net.", Class: dnswire.ClassINET, TTL: 3600,
		Data: &dnswire.NSRData{Host: "ns1.cdn.example.net."},
	})
	return m
}

// BenchmarkAblationScopeHandling compares the cost and effect of
// honoring vs ignoring ECS scope on a replayed trace — the 103-resolver
// bug as a cache-behavior ablation.
func BenchmarkAblationScopeHandling(b *testing.B) {
	cfg := traces.DefaultAllNames
	cfg.Queries = 40000
	tr := traces.GenerateAllNames(cfg)
	for _, mode := range []struct {
		name  string
		honor bool
	}{{"honor-scope", true}, {"ignore-scope", false}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var rate float64
			for i := 0; i < b.N; i++ {
				rate = cachesim.HitRate(tr.Records, mode.honor).Rate()
			}
			b.ReportMetric(rate, "hit%")
		})
	}
}

// BenchmarkWireRoundTrip measures the codec itself.
func BenchmarkWireRoundTrip(b *testing.B) {
	msg := benchResponse()
	ecsopt.Attach(msg, ecsopt.MustNew(netip.MustParseAddr("203.0.113.0"), 24).WithScope(24))
	data, err := msg.Pack()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("pack", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := msg.Pack(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unpack", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dnswire.Unpack(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBlowupReplay measures the trace-driven cache counting engine.
func BenchmarkBlowupReplay(b *testing.B) {
	cfg := traces.DefaultPublicCDN
	cfg.Resolvers = 20
	trs := traces.GeneratePublicCDN(cfg)
	total := 0
	for _, tr := range trs {
		total += len(tr.Records)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range trs {
			cachesim.Blowup(tr.Records, 0)
		}
	}
	b.ReportMetric(float64(total), "records")
}

// BenchmarkAblationProbing measures the privacy cost of each probing
// strategy: the number of upstream queries that leak real client bits to
// an authority that never answers with ECS (the paper's §6.1 argument
// for probing with the resolver's own address).
func BenchmarkAblationProbing(b *testing.B) {
	for _, tc := range []struct {
		name    string
		profile func() resolverProfile
	}{
		{"always", profAlways},
		{"interval-loopback", profLoopback},
		{"interval-own-addr", profOwnAddr},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var leaked, total int
			for i := 0; i < b.N; i++ {
				leaked, total = measureLeak(tc.profile())
			}
			if total > 0 {
				b.ReportMetric(float64(leaked)/float64(total)*100, "leak%")
			}
		})
	}
}
