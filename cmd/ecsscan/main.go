// Command ecsscan probes DNS resolvers over real sockets for their ECS
// behavior. Pointed at a single resolver (the default), it runs the
// paper's §6.3 methodology: it checks EDNS/ECS support, whether
// client-supplied prefixes are accepted or overridden, which source
// prefix lengths come back, and — when pointed at a cooperating
// authority like cmd/authdns — whether the resolver honors ECS scopes in
// its cache.
//
// With -targets it instead runs a bulk availability sweep over many
// resolvers through the concurrent scan engine: a pipelined UDP
// transport multiplexes queries over shared sockets, a worker pool keeps
// -concurrency probes in flight, and -rate caps the aggregate query
// rate.
//
// Usage:
//
//	ecsscan [-resolver 127.0.0.1:5301] [-name test.scan.example.org] \
//	        [-prefix 198.51.100.0/24] [-timeout 3s]
//	ecsscan -targets targets.txt [-concurrency 64] [-rate 1000] [-timeout 3s]
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"time"

	"ecsdns/internal/dnsclient"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
	"ecsdns/internal/scanner"
)

func main() {
	target := flag.String("resolver", "127.0.0.1:5301", "resolver to probe (host:port)")
	nameStr := flag.String("name", "test.scan.example.org", "base hostname to query (unique labels are prepended per trial)")
	prefixStr := flag.String("prefix", "198.51.100.0/24", "client subnet to inject")
	timeout := flag.Duration("timeout", 3*time.Second, "per-attempt query timeout")
	targetsArg := flag.String("targets", "", "bulk mode: file of resolver host:port lines (or a comma-separated list)")
	concurrency := flag.Int("concurrency", 64, "bulk mode: probes in flight")
	rate := flag.Float64("rate", 0, "bulk mode: max queries/sec (0 = unlimited)")
	shards := flag.Int("shards", 0, "bulk mode: pipeline shards, each with its own socket and ID space (0 = one per CPU)")
	flag.Parse()

	if flag.NArg() > 0 {
		log.Fatalf("ecsscan: unexpected arguments %q (targets go in -targets)", flag.Args())
	}
	if *timeout <= 0 {
		log.Fatalf("ecsscan: -timeout must be positive, got %v", *timeout)
	}
	if *concurrency <= 0 {
		log.Fatalf("ecsscan: -concurrency must be positive, got %d", *concurrency)
	}
	if *rate < 0 {
		log.Fatalf("ecsscan: -rate must be >= 0, got %v", *rate)
	}
	base, err := dnswire.ParseName(*nameStr)
	if err != nil {
		log.Fatalf("ecsscan: bad name: %v", err)
	}

	if *shards < 0 {
		log.Fatalf("ecsscan: -shards must be >= 0, got %d", *shards)
	}
	if *targetsArg != "" {
		bulkScan(*targetsArg, base, *concurrency, *rate, *timeout, *shards)
		return
	}

	prefix, err := netip.ParsePrefix(*prefixStr)
	if err != nil {
		log.Fatalf("ecsscan: bad prefix: %v", err)
	}
	singleProbe(*target, base, prefix, *timeout)
}

// loadTargets reads host:port targets from a file (one per line, #
// comments allowed) or from a comma-separated literal list.
func loadTargets(arg string) []string {
	var raw []string
	if f, err := os.Open(arg); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			raw = append(raw, sc.Text())
		}
		if err := sc.Err(); err != nil {
			log.Fatalf("ecsscan: reading %s: %v", arg, err)
		}
	} else if strings.ContainsAny(arg, "/\\") {
		// A path that does not open is a typo, not a hostname list.
		log.Fatalf("ecsscan: %v", err)
	} else {
		raw = strings.Split(arg, ",")
	}
	var targets []string
	for _, line := range raw {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, ":") {
			line += ":53"
		}
		targets = append(targets, line)
	}
	if len(targets) == 0 {
		log.Fatal("ecsscan: no targets")
	}
	return targets
}

// bulkScan sweeps many resolvers concurrently through the pipelined
// transport and prints one availability line per target plus a
// throughput summary.
func bulkScan(targetsArg string, base dnswire.Name, concurrency int, rate float64, timeout time.Duration, shards int) {
	targets := loadTargets(targetsArg)
	pipe, err := dnsclient.NewPipeline(dnsclient.PipelineConfig{
		Shards:  shards, // 0 = one per CPU
		Timeout: timeout,
	})
	if err != nil {
		log.Fatalf("ecsscan: pipeline: %v", err)
	}
	defer pipe.Close()

	// First SIGINT drains the engine gracefully (in-flight probes finish,
	// partial results are still flushed below); a second forces exit.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	defer signal.Stop(sig)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "ecsscan: interrupt — draining in-flight probes (interrupt again to force exit)")
		cancel()
		<-sig
		fmt.Fprintln(os.Stderr, "ecsscan: forced exit")
		os.Exit(130)
	}()

	prog := scanner.NewProgress()
	eng := &scanner.Engine{Concurrency: concurrency, Rate: rate, Progress: prog}
	results := make([]string, len(targets))
	err = eng.Run(ctx, len(targets), func(ctx context.Context, i int) error {
		name, err := base.Prepend(fmt.Sprintf("bulk%d", i))
		if err != nil {
			results[i] = fmt.Sprintf("%-24s bad probe name: %v", targets[i], err)
			return err
		}
		q := dnswire.NewQuery(0, name, dnswire.TypeA) // the pipeline owns IDs
		q.EDNS = dnswire.NewEDNS()
		start := time.Now() //ecslint:ignore wallclock measures real probe RTT
		resp, err := pipe.Exchange(ctx, targets[i], q)
		if err != nil {
			results[i] = fmt.Sprintf("%-24s unreachable: %v", targets[i], err)
			return err
		}
		results[i] = fmt.Sprintf("%-24s rcode=%s answers=%d edns=%v rtt=%s",
			targets[i], resp.RCode, len(resp.Answers), resp.EDNS != nil,
			time.Since(start).Round(time.Millisecond))
		return nil
	})
	interrupted := err != nil && ctx.Err() != nil
	if err != nil && !interrupted {
		log.Fatalf("ecsscan: %v", err)
	}
	flushed := 0
	for _, line := range results {
		if line == "" {
			continue // probe never started before the drain
		}
		fmt.Println(line)
		flushed++
	}
	s := prog.Snapshot()
	st := pipe.Stats()
	fmt.Printf("\n%d targets: %d responding, %d unreachable in %s (%.0f q/s; %d udp sent, %d retries, %d tcp fallbacks)\n",
		len(targets), s.Done, s.Errors, s.Elapsed.Round(time.Millisecond), s.QPS,
		st.Sent, st.Retries, st.TCPFallbacks)
	if interrupted {
		fmt.Printf("interrupted: partial results for %d of %d targets\n", flushed, len(targets))
	}
}

// singleProbe is the original single-target §6.3 trial sequence.
func singleProbe(target string, base dnswire.Name, prefix netip.Prefix, timeout time.Duration) {
	client := &dnsclient.Client{Timeout: timeout}
	trial := 0
	uniq := func() dnswire.Name {
		trial++
		n, err := base.Prepend(fmt.Sprintf("probe%d", os.Getpid()%10000+trial))
		if err != nil {
			log.Fatal(err)
		}
		return n
	}

	// Trial 1: plain query — is the resolver answering at all?
	name := uniq()
	resp, err := client.Query(target, name, dnswire.TypeA, nil)
	if err != nil {
		log.Fatalf("ecsscan: resolver unreachable: %v", err)
	}
	fmt.Printf("plain query: rcode=%s answers=%d edns=%v\n",
		resp.RCode, len(resp.Answers), resp.EDNS != nil)

	// Trial 2: ECS query — does an option come back, and at what scope?
	cs := ecsopt.MustNew(prefix.Addr(), prefix.Bits())
	name = uniq()
	resp, err = client.Query(target, name, dnswire.TypeA, &cs)
	if err != nil {
		log.Fatalf("ecsscan: ECS query failed: %v", err)
	}
	got, ok := dnsclient.ECSFromResponse(resp)
	if !ok {
		fmt.Println("ECS query: no ECS option in response — resolver path does not speak ECS")
		return
	}
	fmt.Printf("ECS query: echoed %s (scope %d)\n", got, got.ScopePrefix)
	switch {
	case got.Addr == cs.Addr && got.SourcePrefix == cs.SourcePrefix:
		fmt.Println("  resolver path accepted the injected prefix (technique-1 capable)")
	case got.SourcePrefix == cs.SourcePrefix:
		fmt.Println("  prefix length preserved but address rewritten (sender-derived)")
	default:
		fmt.Printf("  prefix transformed to /%d — truncation or capping in the path\n", got.SourcePrefix)
	}

	// Trial 3: cache-scope check — same name, sibling /24 in the same
	// /16. A second cache miss (observable as a fresh upstream answer
	// only at the authority) cannot be seen from here, but a compliant
	// resolver at least returns a scope consistent with the first
	// answer.
	sibling := prefix.Addr().As4()
	sibling[2] ^= 0x01
	cs2 := ecsopt.MustNew(netip.AddrFrom4(sibling), prefix.Bits())
	resp, err = client.Query(target, name, dnswire.TypeA, &cs2)
	if err != nil {
		log.Fatalf("ecsscan: second ECS query failed: %v", err)
	}
	got2, ok2 := dnsclient.ECSFromResponse(resp)
	fmt.Printf("sibling-/24 query: ecs=%v", ok2)
	if ok2 {
		fmt.Printf(" echoed %s (scope %d)", got2, got2.ScopePrefix)
	}
	fmt.Println()
	if ok && ok2 && got.ScopePrefix >= 24 && got2.Addr == got.Addr {
		fmt.Println("  WARNING: same scoped answer served across /24s — scope possibly ignored")
	}
}
