package stub

import (
	"fmt"
	"math/rand"
)

// Workload is one of the benchmark's traffic mixes. The seed is the
// harness's; the programs under test see only the generated packets (or,
// for scan-bulk, the target file).
type Workload struct {
	Name string
	// Serve workloads.
	Names   int   // distinct query names (0 = a fresh name per query)
	Zipf    bool  // names drawn Zipf(s=1.1) rather than uniformly
	Subnets int   // distinct client /24s sent as ECS
	Scope   uint8 // ECS scope a correct answer carries
	// Warmup is the number of queries, over all clients, sent between
	// readiness and the measurement window. It is work, not time, so
	// setup_s moves when the system gets faster or slower.
	Warmup int
	// AuthScope and AuthTTL are authdns's -scope and -ttl; "" and 0
	// leave the flag at its default (source-4, 30 s).
	AuthScope string
	AuthTTL   int
	// CacheEntries is recursor's -cache-entries (0 = default, unbounded).
	CacheEntries int
	// Pool makes recursor reach authdns through -upstreams (the
	// resilient pool) instead of -upstream.
	Pool bool
	// Scan marks scan-bulk: ecsscan is the client, not the stub.
	Scan bool
}

// Clients is the number of closed-loop stub clients: one connected UDP
// socket with one query outstanding. The whole benchmark runs on one CPU
// (see pinToOneCPU), where a second client would only queue behind the
// first.
const Clients = 1

// Workload sizes. ScopedSubnets is the per-name entry count the paper's
// §7 cache blow-up is about; MissCacheEntries is small enough that the
// warm-up fills it, so every insert in the window evicts.
const (
	HotNames         = 1000
	HotSubnets       = 16
	ScopedNames      = 8
	ScopedSubnets    = 2048
	MissSubnets      = 16
	MissCacheEntries = 4096
	// ScanTargets is the number of lines in scan-bulk's target file. One
	// scan of it takes about half a second here, short enough to sit
	// between two reference measurements; a window is as many scans as fit.
	ScanTargets = 20000
)

// Workloads lists the four workloads in their canonical order. Why each
// exists, and which layers it isolates, is in BENCHMARK.json and README.md.
var Workloads = []Workload{
	{
		Name:      "serve-hot",
		Names:     HotNames,
		Zipf:      true,
		Subnets:   HotSubnets,
		Scope:     0,
		Warmup:    20000,
		AuthScope: "0",
		AuthTTL:   3600,
	},
	{
		Name:      "serve-scoped",
		Names:     ScopedNames,
		Subnets:   ScopedSubnets,
		Scope:     24,
		Warmup:    ScopedNames * ScopedSubnets,
		AuthScope: "echo",
		AuthTTL:   3600,
	},
	{
		Name:         "serve-miss",
		Subnets:      MissSubnets,
		Scope:        24,
		Warmup:       MissCacheEntries + 1024,
		AuthScope:    "echo",
		CacheEntries: MissCacheEntries,
		Pool:         true,
	},
	{
		Name: "scan-bulk",
		Scan: true,
	},
}

// ByName finds a workload.
func ByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Gen yields one client's query sequence for a serve workload: first
// that client's share of the warm-up, then the measurement stream.
type Gen struct {
	w       Workload
	seed    int64
	client  int
	clients int
	rng     *rand.Rand
	zipf    *rand.Zipf
	names   []string
	seq     int
}

// NewGen builds client's generator (0 <= client < clients). The same
// (workload, seed, client, clients) yields the same sequence.
func NewGen(w Workload, seed int64, client, clients int) *Gen {
	g := &Gen{w: w, seed: seed, client: client, clients: clients}
	g.rng = rand.New(rand.NewSource(seed*1000003 + int64(client)))
	if w.Names > 0 {
		g.names = make([]string, w.Names)
		for i := range g.names {
			g.names[i] = fmt.Sprintf("n%d-%d.%s", seed, i, Zone)
		}
	}
	if w.Zipf {
		g.zipf = rand.NewZipf(g.rng, 1.1, 1, uint64(w.Names-1))
	}
	return g
}

// WarmupSteps is this client's share of the warm-up, as counts of
// leading items. Every client must finish a step before any starts the
// next: the Zipf workload first asks every name once, and only then
// lets clients draw names freely, so that no name is ever missed by two
// clients at once and fetched twice.
func (g *Gen) WarmupSteps() []int {
	share := func(total int) int {
		n := total / g.clients
		if g.client < total%g.clients {
			n++
		}
		return n
	}
	if g.w.Zipf {
		return []int{share(g.w.Names), share(g.w.Warmup - g.w.Names)}
	}
	return []int{share(g.w.Warmup)}
}

// Next returns the next query of the sequence.
func (g *Gen) Next() Item {
	seq := g.seq
	g.seq++
	k := seq*g.clients + g.client // position in the clients' shared deal
	switch {
	case g.w.Names == 0:
		name := fmt.Sprintf("u%d-%d-%d.%s", g.seed, g.client, seq, Zone)
		return Item{name, subnet24(seq % g.w.Subnets)}
	case g.w.Zipf:
		// Ask every name once (the first warm-up step), then follow the
		// Zipf stream.
		if k < g.w.Names {
			return Item{g.names[k], subnet24(k % g.w.Subnets)}
		}
		return Item{g.names[g.zipf.Uint64()], subnet24(g.rng.Intn(g.w.Subnets))}
	default:
		// The warm-up is the prefill: every (name, subnet) pair once,
		// dealt round-robin to the clients. Then uniform pairs.
		pair := k
		if k >= g.w.Names*g.w.Subnets {
			pair = g.rng.Intn(g.w.Names * g.w.Subnets)
		}
		return Item{g.names[pair%g.w.Names], subnet24(pair / g.w.Names)}
	}
}

// subnet24 maps an index to a distinct public-looking /24 under 20.0.0.0/13.
func subnet24(i int) [3]byte {
	return [3]byte{20, byte(i >> 8), byte(i)}
}
