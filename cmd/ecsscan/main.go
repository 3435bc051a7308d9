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
// the rate at which probes are sent, on the loop's own timer. It reads its
// targets a buffer ahead of the probes, on a goroutine of its own that
// wakes the loop when it hands a buffer over, so the loop takes answers
// and deadlines while it waits for input. It writes each result line as
// its probe ends, so its memory is bounded by -concurrency, not by the
// number of targets.
//
// Usage:
//
//	ecsscan [-resolver 127.0.0.1:5301] [-name test.scan.example.org] \
//	        [-prefix 198.51.100.0/24] [-timeout 3s]
//	ecsscan -targets targets.txt [-concurrency 64] [-rate 1000] [-timeout 3s]
//	ecsscan -targets - < targets.txt
package main

import (
	"bufio"
	"bytes"
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
)

func main() {
	target := flag.String("resolver", "127.0.0.1:5301", "resolver to probe (host:port)")
	nameStr := flag.String("name", "test.scan.example.org", "base hostname to query (unique labels are prepended per trial)")
	prefixStr := flag.String("prefix", "198.51.100.0/24", "client subnet to inject")
	timeout := flag.Duration("timeout", 3*time.Second, "per-attempt query timeout")
	targetsArg := flag.String("targets", "", "bulk mode: file of resolver host:port lines, - for standard input, or a comma-separated list")
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

// openTargets opens what -targets names: standard input for "-", the
// file when arg opens as one, and otherwise arg itself, a comma-separated
// list.
func openTargets(arg string) (io.ReadCloser, error) {
	if arg == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	f, err := os.Open(arg)
	if err == nil {
		return f, nil
	}
	if strings.ContainsAny(arg, "/\\") {
		// A path that does not open is a typo, not a hostname list.
		return nil, err
	}
	return io.NopCloser(strings.NewReader(strings.ReplaceAll(arg, ",", "\n"))), nil
}

// parseTarget appends to dst the text a target line is reported by —
// ip:port and host:port as written, a bare address or hostname with port
// 53 — and returns where the probe goes: invalid for a hostname, which
// the probe resolves. A line that cannot name a target is an error that
// names it.
func parseTarget(dst, line []byte) ([]byte, netip.AddrPort, error) {
	if ap, hasPort, ok := parseIPv4(line); ok {
		dst = append(dst, line...)
		if !hasPort {
			dst = append(dst, ":53"...)
		}
		return dst, ap, nil
	}
	t, err := normalizeTarget(string(line))
	if err != nil {
		return dst, netip.AddrPort{}, fmt.Errorf("bad target %q: %v", line, err)
	}
	ap, _ := netip.ParseAddrPort(t)
	return append(dst, t...), ap, nil
}

// parseIPv4 reads the scan's own kind of line, a dotted-quad IPv4 address
// with or without a port, without making a string of it. It takes only
// lines that normalizeTarget would keep as written or give port 53, and
// leaves every other line, its errors included, to normalizeTarget.
func parseIPv4(b []byte) (ap netip.AddrPort, hasPort, ok bool) {
	var a [4]byte
	i := 0
	for k := range a {
		if k > 0 {
			if i == len(b) || b[i] != '.' {
				return ap, false, false
			}
			i++
		}
		v, n := digits(b[i:], 3)
		if n == 0 || v > 255 || n > 1 && b[i] == '0' { // netip takes no leading zero
			return ap, false, false
		}
		a[k] = byte(v)
		i += n
	}
	port := 53
	if i < len(b) {
		if b[i] != ':' {
			return ap, false, false
		}
		var n int
		port, n = digits(b[i+1:], len(b))
		if n == 0 || i+1+n != len(b) || port == 0 || port > 65535 {
			return ap, false, false
		}
		hasPort = true
	}
	return netip.AddrPortFrom(netip.AddrFrom4(a), uint16(port)), hasPort, true
}

// digits reads the decimal number at the start of b, of at most limit
// digits, and says how many it read. It stops once the value passes
// 65535, the largest any caller takes.
func digits(b []byte, limit int) (v, n int) {
	for n < len(b) && n < limit && b[n] >= '0' && b[n] <= '9' && v <= 65535 {
		v = v*10 + int(b[n]-'0')
		n++
	}
	return v, n
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

// lookupTarget resolves a host:port target. A bulk scan calls it once
// for each hostname it meets, on the sweep's goroutine.
var lookupTarget = func(hostport string) (netip.AddrPort, error) {
	raddr, err := net.ResolveUDPAddr("udp", hostport)
	if err != nil {
		return netip.AddrPort{}, err
	}
	return raddr.AddrPort(), nil
}

// probeOutcome says which of a probeResult's fields are set.
type probeOutcome uint8

const (
	probeAnswered    probeOutcome = iota // rcode, answers, edns, rtt
	probeUnreachable                     // err
	probeBadName                         // err
)

// probeResult is the outcome of one bulk probe, which its line reports.
type probeResult struct {
	err     error
	rtt     time.Duration
	rcode   dnswire.RCode
	answers uint16
	outcome probeOutcome
	edns    bool
}

// flight is what a bulk scan keeps of the probe in one of the sweep's
// slots until it ends: the target's text.
type flight struct {
	target  []byte
	badName bool
}

// bulk is one -targets sweep. It reads its targets ahead of the probes,
// in two fixed buffers, and writes each result line as its probe ends,
// so what it holds is bounded by the window: one flight a slot, the two
// buffers, and the hostnames it has resolved. A probe's name is built in
// one buffer and lent to the slot's query (SetQuestionName), so a probe
// allocates nothing of its own. A probe's rtt runs from its first
// datagram, when the sweep sent it, to when done reads the clock.
type bulk struct {
	base    dnswire.Name
	in      *lineReader
	out     *bufio.Writer
	flights []flight
	hosts   map[string]netip.AddrPort
	name    []byte // the probe name being built
	line    []byte // the result line being built
	err     error  // why the input ended early: a read error or a bad line

	held, rest []byte // the input buffer being split into lines, and its lines not yet taken
	inErr      error  // what ended the input once rest is taken: io.EOF or a read error

	start time.Time // when the sweep started

	targets, written           int
	started, answered, failing int
}

// newBulk makes a sweep of window slots that reads target lines from in
// and writes result lines to out through its own buffer.
func newBulk(base dnswire.Name, in io.Reader, out io.Writer, window int) *bulk {
	return &bulk{
		base:    base,
		in:      newLineReader(in),
		out:     bufio.NewWriterSize(out, 64<<10),
		flights: make([]flight, window),
		hosts:   make(map[string]netip.AddrPort),
	}
}

// lineReader reads an input on a goroutine of its own, ahead of the
// sweep, in two fixed buffers that the two trade over channels, so that
// the sweep never waits on the input itself. Each buffer it hands over
// ends at a line's end, or at the input's; a line that fills a buffer
// ends the input, as it would bufio.Scanner's. A read blocked on an
// input that never ends stays blocked until the input is closed.
type lineReader struct {
	full  chan chunk    // buffers read, in input order
	empty chan []byte   // buffers handed back; closed once the sweep is done
	ready chan struct{} // the sweep's wake: a buffer has been handed over
}

// chunk is whole lines of input; err, set on the last chunk, is io.EOF
// or the error that ended the input.
type chunk struct {
	b   []byte
	err error
}

// newLineReader starts the reader. full holds both buffers, so that the
// reader's last send never waits on a sweep that has stopped reading.
func newLineReader(in io.Reader) *lineReader {
	r := &lineReader{full: make(chan chunk, 2), empty: make(chan []byte, 1), ready: make(chan struct{}, 1)}
	r.empty <- make([]byte, bufio.MaxScanTokenSize)
	go r.read(in, make([]byte, bufio.MaxScanTokenSize))
	return r
}

// read fills buf until it holds a line's end, hands the lines over, and
// carries what follows the last of them into the next buffer.
func (r *lineReader) read(in io.Reader, buf []byte) {
	for n := 0; ; {
		m, err := in.Read(buf[n:])
		n += m
		end := bytes.LastIndexByte(buf[:n], '\n') + 1
		switch {
		case err != nil:
			end = n
		case end == 0 && n == len(buf):
			err = bufio.ErrTooLong
		case end == 0:
			continue
		}
		next, ok := []byte(nil), err == nil
		if ok {
			if next, ok = <-r.empty; !ok {
				return
			}
		}
		n = copy(next, buf[end:n])
		r.full <- chunk{buf[:end], err}
		select {
		case r.ready <- struct{}{}:
		default: // a wake is already pending
		}
		if !ok {
			return
		}
		buf = next
	}
}

// nextLine returns the next target line, trimmed, past blank lines and
// # comments, and counts it; false at the end of the input, or, unless it
// may wait, when the next lines have not been read yet, and then a later
// call takes up where it left off.
func (b *bulk) nextLine(wait bool) ([]byte, bool) {
	for {
		for len(b.rest) > 0 {
			var line []byte
			line, b.rest, _ = bytes.Cut(b.rest, []byte{'\n'})
			if line = bytes.TrimSpace(line); len(line) > 0 && line[0] != '#' {
				b.targets++
				return line, true
			}
		}
		if b.inErr != nil {
			return nil, false
		}
		if b.held != nil {
			b.in.empty <- b.held[:cap(b.held)]
			b.held = nil
		}
		var c chunk
		if wait {
			c = <-b.in.full
		} else {
			select {
			case c = <-b.in.full:
			default:
				return nil, false
			}
		}
		b.held, b.rest, b.inErr = c.b, c.b, c.err
		if c.err != nil && c.err != io.EOF {
			b.err = fmt.Errorf("reading targets: %v", c.err)
		}
	}
}

// probe reads the next target and asks it for the A record of
// bulk<n>.<base>, n counting the probes from 0, in the query the sweep
// keeps for the slot: the first probe in a slot sets it up — one
// question, EDNS advertising 4096 bytes, the ID left to the pipeline —
// and later ones only change the name, built in b.name and lent to the
// query (dnswire.Message.SetQuestionName); the answer done is given
// shares it. The end of the input, or a line
// that names no target, ends the sweep's input; input not read yet is
// dnsclient.ErrNoTarget, and the reader's wake brings the sweep back.
func (b *bulk) probe(slot int, q *dnswire.Message) (netip.AddrPort, error) {
	line, ok := b.nextLine(false)
	if !ok {
		if b.inErr == nil {
			return netip.AddrPort{}, dnsclient.ErrNoTarget
		}
		return netip.AddrPort{}, io.EOF
	}
	f := &b.flights[slot]
	var dest netip.AddrPort
	var err error
	if f.target, dest, err = parseTarget(f.target[:0], line); err != nil {
		b.err = err
		return netip.AddrPort{}, io.EOF
	}
	n := b.started
	b.started++
	f.badName = false
	if !dest.IsValid() {
		dest, err = b.resolve(f.target)
	}
	if err != nil {
		return netip.AddrPort{}, err
	}
	b.name = append(b.name[:0], "bulk"...)
	b.name = strconv.AppendInt(b.name, int64(n), 10)
	b.name = append(b.name, '.')
	if b.base != dnswire.Root {
		b.name = append(b.name, b.base...)
	}
	// base is canonical and the label is short, lower-case and dot-free,
	// so the total length is all there is left to check.
	if len(b.name)+1 > dnswire.MaxNameLen {
		f.badName = true
		return netip.AddrPort{}, dnswire.ErrNameTooLong
	}
	if q.EDNS == nil {
		*q = *dnswire.NewQuery(0, "", dnswire.TypeA)
		q.EDNS = dnswire.NewEDNS()
	}
	q.SetQuestionName(b.name)
	return dest, nil
}

// resolve looks a hostname target up once; a lookup that fails is tried
// again when the name comes back.
func (b *bulk) resolve(target []byte) (netip.AddrPort, error) {
	if ap, ok := b.hosts[string(target)]; ok {
		return ap, nil
	}
	ap, err := lookupTarget(string(target))
	if err == nil {
		b.hosts[string(target)] = ap
	}
	return ap, err
}

// done writes the line of the probe in slot, whose first datagram was
// sent at sent. A probe the drain cut short writes none: it is neither
// responding nor unreachable.
func (b *bulk) done(slot int, resp *dnswire.Message, sent time.Time, err error) {
	if errors.Is(err, context.Canceled) {
		return
	}
	f := &b.flights[slot]
	r := probeResult{outcome: probeUnreachable, err: err}
	switch {
	case err == nil:
		r = probeResult{
			outcome: probeAnswered,
			rcode:   resp.RCode,
			answers: uint16(len(resp.Answers)), // a wire count, so it fits
			edns:    resp.EDNS != nil,
			rtt:     time.Since(sent),
		}
		b.answered++
	case f.badName:
		r.outcome = probeBadName
		b.failing++
	default:
		b.failing++
	}
	b.line = append(appendResult(b.line[:0], f.target, &r), '\n')
	b.out.Write(b.line) // an error stays in out for Flush to report
	b.written++
}

// appendResult appends target's result line, without the newline.
func appendResult(buf, target []byte, r *probeResult) []byte {
	buf = append(buf, target...)
	for pad := 24 - utf8.RuneCount(target); pad > 0; pad-- {
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

// writeSummary writes the sweep's closing line: its counts, and the
// probes it started per second of elapsed.
func (b *bulk) writeSummary(elapsed time.Duration, st dnsclient.PipelineStats) {
	qps := 0.0
	if elapsed > 0 {
		qps = float64(b.started) / elapsed.Seconds()
	}
	fmt.Fprintf(b.out, "\n%d targets: %d responding, %d unreachable in %s (%.0f q/s; %d udp sent, %d retries, %d tcp fallbacks)\n",
		b.targets, b.answered, b.failing, elapsed.Round(time.Millisecond), qps,
		st.Sent, st.Retries, st.TCPFallbacks)
}

// bulkScan sweeps the resolvers targetsArg names through the pipeline,
// reading the targets ahead of their probes and writing each
// availability line to out as its probe ends, in the order the probes
// end, then a throughput summary. A cancel of ctx drains the sweep, and
// ends a wait for input: the lines are those of the probes that ended,
// and the targets never reached in a file or list are read to its end
// only to be counted; standard input, which may never end, is not read
// further. A line that names no target ends the input too: the probes in
// flight end and are written, and the line is the error.
func bulkScan(ctx context.Context, out io.Writer, targetsArg string, base dnswire.Name, concurrency int, rate float64, timeout time.Duration) error {
	in, err := openTargets(targetsArg)
	if err != nil {
		return err
	}
	defer in.Close()
	pipe, err := dnsclient.NewPipeline(dnsclient.PipelineConfig{Timeout: timeout})
	if err != nil {
		return fmt.Errorf("pipeline: %v", err)
	}
	defer pipe.Close()

	b := newBulk(base, in, out, concurrency)
	defer close(b.in.empty)
	b.start = time.Now()
	err = pipe.Sweep(ctx, concurrency, rate, b.in.ready, b.probe, b.done)
	interrupted := err != nil && ctx.Err() != nil
	if err != nil && !interrupted {
		return err
	}
	// The summary's clock stops here: elapsed and q/s are the scan's,
	// not the scan's plus the time it takes to count what is left.
	elapsed := time.Since(b.start)
	if interrupted && targetsArg != "-" {
		for _, ok := b.nextLine(true); ok; _, ok = b.nextLine(true) {
		}
	}
	switch {
	case b.err != nil:
		if err := b.out.Flush(); err != nil {
			return errors.Join(b.err, fmt.Errorf("writing results: %v", err))
		}
		return b.err
	case b.targets == 0:
		return errors.New("no targets")
	}
	st := pipe.Stats()
	b.writeSummary(elapsed, st)
	if err := st.Check(); err != nil {
		log.Printf("ecsscan: accounting: %v", err)
	}
	if interrupted {
		fmt.Fprintf(b.out, "interrupted: partial results for %d of %d targets\n", b.written, b.targets)
	}
	if err := b.out.Flush(); err != nil {
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
