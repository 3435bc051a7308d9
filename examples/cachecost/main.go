// Cache cost: the operator's-eye view of §7 — how much bigger a
// resolver cache gets and how much the hit rate drops once ECS scope
// restrictions are honored, on a small synthetic trace.
package main

import (
	"fmt"
	"time"

	"ecsdns/internal/cachesim"
	"ecsdns/internal/stats"
	"ecsdns/internal/traces"
)

func main() {
	// A modest public-resolver trace: 40 egress resolvers talking to a
	// CDN with 20-second TTLs.
	cfg := traces.DefaultPublicCDN
	cfg.Resolvers = 40
	trs := traces.GeneratePublicCDN(cfg)

	fmt.Println("Per-resolver cache blow-up when honoring ECS scopes (CDN trace, TTL 20 s):")
	var factors []float64
	for _, tr := range trs {
		factors = append(factors, cachesim.Blowup(tr.Records, 0).Factor())
	}
	s := stats.Summarize(factors)
	fmt.Printf("  %s\n\n", s)

	fmt.Println("The same resolvers if the CDN used 60-second TTLs:")
	factors = factors[:0]
	for _, tr := range trs {
		factors = append(factors, cachesim.Blowup(tr.Records, 60*time.Second).Factor())
	}
	fmt.Printf("  %s\n\n", stats.Summarize(factors))

	// A single busy resolver's all-names trace: hit rate with and
	// without ECS.
	an := traces.DefaultAllNames
	an.Queries = 60000
	an.Clients = 1000
	tr := traces.GenerateAllNames(an)
	res := cachesim.Blowup(tr.Records, 0)
	plain, ecs := res.HitRate(false), res.HitRate(true)
	fmt.Printf("Busy-resolver hit rate over %d queries:\n", res.Queries)
	fmt.Printf("  classic cache (scope ignored): %5.1f%%\n", plain)
	fmt.Printf("  ECS cache (scope honored):     %5.1f%%\n", ecs)
	fmt.Printf("  → ECS costs %.1f points of hit rate for this workload\n", plain-ecs)
}
