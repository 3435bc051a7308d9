// Command ecsscan probes DNS resolvers over real sockets for their ECS
// behavior. Pointed at a single resolver (the default), it runs the
// paper's §6.3 methodology: it checks EDNS/ECS support, whether
// client-supplied prefixes are accepted or overridden, which source
// prefix lengths come back, and — when pointed at a cooperating
// authority like cmd/authdns — whether the resolver honors ECS scopes in
// its cache.
//
// With -targets it instead runs a bulk availability sweep over many
// resolvers: one loop on the main goroutine (dnsclient.Pipeline.Sweep)
// keeps -concurrency probes in flight over one UDP socket, and -rate caps
// the rate at which probes start.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/netip"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

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

	if *targetsArg != "" {
		// The first SIGINT drains the sweep: no probe or attempt starts,
		// the ones in flight end at their answer or deadline, and the
		// partial results are still printed. A second forces exit.
		ctx, cancel := context.WithCancel(context.Background())
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		go func() {
			<-sig
			fmt.Fprintln(os.Stderr, "ecsscan: interrupt — draining in-flight probes (interrupt again to force exit)")
			cancel()
			<-sig
			fmt.Fprintln(os.Stderr, "ecsscan: forced exit")
			os.Exit(130)
		}()
		err := bulkScan(ctx, os.Stdout, *targetsArg, base, *concurrency, *rate, *timeout)
		signal.Stop(sig)
		cancel()
		if err != nil {
			log.Fatalf("ecsscan: %v", err)
		}
		return
	}

	prefix, err := netip.ParsePrefix(*prefixStr)
	if err != nil {
		log.Fatalf("ecsscan: bad prefix: %v", err)
	}
	singleProbe(*target, base, prefix, *timeout)
}

// loadTargets reads targets from a file (one per line, # comments
// allowed) or from a comma-separated literal list.
func loadTargets(arg string) ([]string, error) {
	var raw []string
	if f, err := os.Open(arg); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			raw = append(raw, sc.Text())
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("reading %s: %v", arg, err)
		}
	} else if strings.ContainsAny(arg, "/\\") {
		// A path that does not open is a typo, not a hostname list.
		return nil, err
	} else {
		raw = strings.Split(arg, ",")
	}
	targets, err := parseTargets(raw)
	if err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return nil, errors.New("no targets")
	}
	return targets, nil
}

// parseTargets turns target lines into the host:port strings the
// pipeline dials, skipping blank lines and # comments. A line that
// cannot name a target fails the whole load: found here it is one
// start-up error, found per probe it is a resolver reported unreachable.
func parseTargets(lines []string) ([]string, error) {
	targets := make([]string, 0, len(lines))
	for _, line := range lines {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := normalizeTarget(line)
		if err != nil {
			return nil, fmt.Errorf("bad target %q: %v", line, err)
		}
		targets = append(targets, t)
	}
	return targets, nil
}

// normalizeTarget gives a target its port: ip:port and host:port stay as
// written, a bare address (IPv6 included, which a colon test would take
// for host:port) or a bare hostname gets port 53. Port 0 names no
// server: the kernel refuses to send there.
func normalizeTarget(line string) (string, error) {
	if ap, err := netip.ParseAddrPort(line); err == nil {
		if ap.Port() == 0 {
			return "", errors.New("bad port 0")
		}
		return line, nil
	}
	if addr, err := netip.ParseAddr(line); err == nil {
		return netip.AddrPortFrom(addr, 53).String(), nil
	}
	host, port, err := net.SplitHostPort(line)
	if err != nil {
		var retryErr error
		if host, port, retryErr = net.SplitHostPort(line + ":53"); retryErr != nil {
			return "", err
		}
		line += ":53"
	}
	if n, err := strconv.ParseUint(port, 10, 16); err != nil {
		return "", fmt.Errorf("bad port %q", port)
	} else if n == 0 {
		return "", errors.New("bad port 0")
	}
	if _, err := netip.ParseAddr(host); err != nil {
		if _, err := dnswire.ParseName(host); err != nil {
			return "", fmt.Errorf("bad host %q: %v", host, err)
		}
	}
	return line, nil
}

// probeOutcome says which of a probeResult's fields are set.
type probeOutcome uint8

const (
	probeNotStarted  probeOutcome = iota // the drain came before this target's turn, or cut its probe short
	probeAnswered                        // rcode, answers, edns, rtt
	probeUnreachable                     // err
	probeBadName                         // err
)

// probeResult is the outcome of one bulk probe, kept as values rather
// than as its formatted line: a sweep holds one per target until the
// run ends, and formatting is then one pass outside the measured scan.
type probeResult struct {
	err     error
	rtt     time.Duration
	rcode   dnswire.RCode
	answers uint16
	outcome probeOutcome
	edns    bool
}

// bulk is one -targets sweep: the base every probe name is built on,
// each target's address, resolved once at load, and its result.
type bulk struct {
	base    dnswire.Name
	dests   []netip.AddrPort
	results []probeResult
	name    []byte // the probe name being built

	start                      time.Time
	started, answered, failing int
}

// newBulk resolves targets. One that does not resolve keeps the error in
// its result, which stays probeNotStarted until the target's turn: then
// the probe ends with that error, as a failed lookup did when each probe
// made its own.
func newBulk(base dnswire.Name, targets []string) *bulk {
	b := &bulk{
		base:    base,
		dests:   make([]netip.AddrPort, len(targets)),
		results: make([]probeResult, len(targets)),
	}
	resolved := make(map[string]netip.AddrPort)
	for i, t := range targets {
		if ap, err := netip.ParseAddrPort(t); err == nil {
			b.dests[i] = ap
			continue
		}
		ap, ok := resolved[t]
		if !ok {
			raddr, err := net.ResolveUDPAddr("udp", t)
			if err != nil {
				b.results[i].err = err
				continue
			}
			ap = raddr.AddrPort()
			resolved[t] = ap
		}
		b.dests[i] = ap
	}
	return b
}

// probe asks target i for the A record of bulk<i>.<base>, in the query
// the sweep keeps for the slot: the first probe in a slot sets it up —
// one question, EDNS advertising 4096 bytes, the ID left to the
// pipeline — and later ones only change the name.
func (b *bulk) probe(i int, q *dnswire.Message) (netip.AddrPort, error) {
	b.started++
	r := &b.results[i]
	if r.err != nil {
		return netip.AddrPort{}, r.err
	}
	b.name = append(b.name[:0], "bulk"...)
	b.name = strconv.AppendInt(b.name, int64(i), 10)
	b.name = append(b.name, '.')
	if b.base != dnswire.Root {
		b.name = append(b.name, b.base...)
	}
	// base is canonical and the label is short, lower-case and dot-free,
	// so the total length is all there is left to check.
	if len(b.name)+1 > dnswire.MaxNameLen {
		*r = probeResult{outcome: probeBadName, err: dnswire.ErrNameTooLong}
		return netip.AddrPort{}, r.err
	}
	if q.EDNS == nil {
		*q = *dnswire.NewQuery(0, "", dnswire.TypeA)
		q.EDNS = dnswire.NewEDNS()
	}
	q.Questions[0].Name = dnswire.Name(b.name)
	r.rtt = time.Since(b.start) // when the probe started; done makes it the round trip
	return b.dests[i], nil
}

// done keeps what came back for target i. A probe the drain cut short
// goes back to probeNotStarted: it is neither responding nor unreachable.
func (b *bulk) done(i int, resp *dnswire.Message, err error) {
	r := &b.results[i]
	switch {
	case err == nil:
		*r = probeResult{
			outcome: probeAnswered,
			rcode:   resp.RCode,
			answers: uint16(len(resp.Answers)), // a wire count, so it fits
			edns:    resp.EDNS != nil,
			rtt:     time.Since(b.start) - r.rtt,
		}
		b.answered++
	case errors.Is(err, context.Canceled):
		*r = probeResult{}
	case r.outcome == probeBadName:
		b.failing++
	default:
		*r = probeResult{outcome: probeUnreachable, err: err}
		b.failing++
	}
}

// progress is the sweep's summary figures, as of now.
func (b *bulk) progress() scanner.ProgressSnapshot {
	s := scanner.ProgressSnapshot{
		Sent:    int64(b.started),
		Done:    int64(b.answered),
		Errors:  int64(b.failing),
		Elapsed: time.Since(b.start),
	}
	if s.Elapsed > 0 {
		s.QPS = float64(s.Sent) / s.Elapsed.Seconds()
	}
	return s
}

// appendResult appends target's result line, without the newline.
func appendResult(buf []byte, target string, r *probeResult) []byte {
	buf = append(buf, target...)
	for pad := 24 - utf8.RuneCountInString(target); pad > 0; pad-- {
		buf = append(buf, ' ') // %-24s
	}
	switch r.outcome {
	case probeAnswered:
		buf = append(buf, " rcode="...)
		buf = append(buf, r.rcode.String()...)
		buf = append(buf, " answers="...)
		buf = strconv.AppendUint(buf, uint64(r.answers), 10)
		buf = append(buf, " edns="...)
		buf = strconv.AppendBool(buf, r.edns)
		buf = append(buf, " rtt="...)
		buf = append(buf, r.rtt.Round(time.Millisecond).String()...)
	case probeUnreachable:
		buf = append(buf, " unreachable: "...)
		buf = append(buf, r.err.Error()...)
	case probeBadName:
		buf = append(buf, " bad probe name: "...)
		buf = append(buf, r.err.Error()...)
	}
	return buf
}

// writeResults writes one line per probe that ran, in target order, and
// returns how many that was. A write error stays in w for Flush to
// report, as with everything written through a bufio.Writer.
func writeResults(w *bufio.Writer, targets []string, results []probeResult) int {
	var line []byte
	written := 0
	for i := range results {
		if results[i].outcome == probeNotStarted {
			continue
		}
		line = append(appendResult(line[:0], targets[i], &results[i]), '\n')
		w.Write(line)
		written++
	}
	return written
}

// writeSummary writes the sweep's closing line.
func writeSummary(w *bufio.Writer, targets int, s scanner.ProgressSnapshot, st dnsclient.PipelineStats) {
	fmt.Fprintf(w, "\n%d targets: %d responding, %d unreachable in %s (%.0f q/s; %d udp sent, %d retries, %d tcp fallbacks)\n",
		targets, s.Done, s.Errors, s.Elapsed.Round(time.Millisecond), s.QPS,
		st.Sent, st.Retries, st.TCPFallbacks)
}

// bulkScan sweeps many resolvers through the pipeline and writes one
// availability line per target plus a throughput summary to out, all of
// it once the sweep has ended and through one buffered writer. A cancel
// of ctx drains the sweep, and the lines are those of the probes that
// ended.
func bulkScan(ctx context.Context, out io.Writer, targetsArg string, base dnswire.Name, concurrency int, rate float64, timeout time.Duration) error {
	targets, err := loadTargets(targetsArg)
	if err != nil {
		return err
	}
	pipe, err := dnsclient.NewPipeline(dnsclient.PipelineConfig{Timeout: timeout})
	if err != nil {
		return fmt.Errorf("pipeline: %v", err)
	}
	defer pipe.Close()

	b := newBulk(base, targets)
	var pace func(context.Context) error
	if rate > 0 {
		pace = scanner.NewRateLimiter(rate, min(concurrency, len(targets))).Wait
	}
	b.start = time.Now()
	err = pipe.Sweep(ctx, len(targets), concurrency, pace, b.probe, b.done)
	interrupted := err != nil && ctx.Err() != nil
	if err != nil && !interrupted {
		return err
	}
	// The summary's clock stops here: elapsed and q/s are the scan's,
	// not the scan's plus the time it takes to print it.
	s := b.progress()
	w := bufio.NewWriterSize(out, 64<<10)
	written := writeResults(w, targets, b.results)
	writeSummary(w, len(targets), s, pipe.Stats())
	if interrupted {
		fmt.Fprintf(w, "interrupted: partial results for %d of %d targets\n", written, len(targets))
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing results: %v", err)
	}
	return nil
}

// singleProbe is the original single-target §6.3 trial sequence.
func singleProbe(target string, base dnswire.Name, prefix netip.Prefix, timeout time.Duration) {
	client := &dnsclient.Client{Timeout: timeout}
	defer client.Close()
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
