package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnsclient"
	"ecsdns/internal/dnsserver"
	"ecsdns/internal/dnswire"
)

// startAnswerResponder starts a UDP responder that answers every query
// the way the scan's targets do — the question echoed, one A record
// owned by the question name (a compression pointer to it), the query's
// OPT carried over — by splicing bytes, without a decode. It must not
// allocate: testing.AllocsPerRun counts every goroutine's mallocs, so a
// real dnsserver here would put its own per-query allocations on the
// probe's bill. With a delay it answers each query that long after
// reading it (and allocates to do so); read, when non-nil, hears of
// every query read.
func startAnswerResponder(t testing.TB, delay time.Duration, read chan<- struct{}) string {
	t.Helper()
	pc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		answer := []byte{
			0xC0, 12, // owner: pointer to the question name
			0, 1, 0, 1, // A, IN
			0, 0, 0, 60, // TTL
			0, 4, 192, 0, 2, 53,
		}
		q := make([]byte, 2048)
		r := make([]byte, 0, 2048+len(answer))
		for {
			n, src, err := pc.ReadFromUDPAddrPort(q)
			if err != nil {
				return
			}
			end := 12 // walk the question name's labels to its root
			for end < n && q[end] != 0 {
				end += 1 + int(q[end])
			}
			end += 1 + 4 // root, type, class
			if end > n {
				continue
			}
			r = append(r[:0], q[:end]...)
			r = append(r, answer...)
			r = append(r, q[end:n]...)
			r[2] |= 0x80 // QR
			r[7] = 1     // ANCOUNT
			if read != nil {
				read <- struct{}{}
			}
			if delay == 0 {
				pc.WriteToUDPAddrPort(r, src)
				continue
			}
			late := append([]byte(nil), r...)
			wg.Add(1)
			time.AfterFunc(delay, func() {
				defer wg.Done()
				pc.WriteToUDPAddrPort(late, src)
			})
		}
	}()
	t.Cleanup(func() {
		pc.Close()
		wg.Wait()
	})
	return pc.LocalAddr().String()
}

// lineCounter counts the occurrences of want in what is written to it,
// one split across two writes included, without allocating.
type lineCounter struct {
	want []byte
	tail []byte // the end of the last write, too short to hold want
	n    int
}

func newLineCounter(want string) *lineCounter {
	return &lineCounter{want: []byte(want), tail: make([]byte, 0, 2*len(want))}
}

func (c *lineCounter) Write(p []byte) (int, error) {
	k := len(c.want) - 1
	c.n += bytes.Count(append(c.tail, p[:min(k, len(p))]...), c.want) + bytes.Count(p, c.want)
	c.tail = append(c.tail[:0], p[max(0, len(p)-k):]...)
	return len(p), nil
}

// repeatTargets returns n target lines, each naming target.
func repeatTargets(target string, n int) string {
	return strings.Repeat(target+"\n", n)
}

// TestAllocGateBulkProbe is the end-to-end half of the allocation gates:
// the codec and the pipeline are each held to their own figure, and this
// holds the call site that uses them — ecsscan's probe and done on
// Pipeline.Sweep, reading each target line and writing each result line
// — to nothing per probe, a never-seen probe name included: the name is
// built in the scan's one buffer and lent to the slot's query
// (SetQuestionName), the answer's question and owner names are the
// query's, and an address line is read without a string. The probe
// names are longer than 32 bytes, past which a decode that compares them
// in a switch allocates each. A sweep's slots, set up once per sweep,
// are spread over its 4096 probes: 0.18 is measured. A probe that makes
// its name a string reads 1.17, and a loop that builds a query, a
// response and a result line per probe reads 17 here.
func TestAllocGateBulkProbe(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	target := startAnswerResponder(t, 0, nil)
	pipe, err := dnsclient.NewPipeline(dnsclient.PipelineConfig{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	const probes = 4096
	input := repeatTargets(target, probes)
	answered := newLineCounter(" rcode=NOERROR answers=1 edns=true ")
	run := 0
	sweep := func() {
		// A base of its own per sweep: no probe name repeats.
		run++
		answered.n = 0
		b := newBulk(dnswire.MustParseName("run"+strconv.Itoa(run)+".allocation-gate.scan.test"), strings.NewReader(input), answered, 64)
		if err := pipe.Sweep(context.Background(), 64, 0, b.in.ready, b.probe, b.done); err != nil {
			t.Fatal(err)
		}
		if err := b.out.Flush(); err != nil {
			t.Fatal(err)
		}
		if answered.n != probes || b.written != probes || b.err != nil {
			t.Fatalf("%d of %d lines read as an answered NOERROR with one answer and EDNS (%d written, input error %v)",
				answered.n, probes, b.written, b.err)
		}
	}
	avg := testing.AllocsPerRun(4, sweep) / probes
	if avg > 0.25 {
		t.Fatalf("a bulk probe allocates %.2f allocs/probe, want <= 0.25", avg)
	}
	t.Logf("%.2f allocs/probe", avg)
}

func TestBulkProbeBadName(t *testing.T) {
	// 4 × 63 + 3 dots leaves no room for "bulk0.": the probe must say so
	// without sending anything.
	long := strings.Repeat("a", 62)
	base := dnswire.MustParseName(long + "." + long + "." + long + "." + long)
	pipe, err := dnsclient.NewPipeline(dnsclient.PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	var out bytes.Buffer
	b := newBulk(base, strings.NewReader("127.0.0.1:9\n"), &out, 1)
	if err := pipe.Sweep(context.Background(), 1, 0, b.in.ready, b.probe, b.done); err != nil {
		t.Fatal(err)
	}
	b.out.Flush()
	_, want := base.Prepend("bulk0")
	if line := "127.0.0.1:9              bad probe name: " + want.Error() + "\n"; want == nil || out.String() != line || b.failing != 1 {
		t.Fatalf("output %q with %d failing, want %q and 1", out.String(), b.failing, line)
	}
	if st := pipe.Stats(); st.Sent != 0 {
		t.Fatalf("a probe with a bad name sent %d datagrams", st.Sent)
	}
}

// startZoneServer serves scan.test. — every name under it has an A
// record — over loopback, as authdns does.
func startZoneServer(t *testing.T) (string, *dnsserver.Server) {
	t.Helper()
	auth := authority.NewServer(authority.Config{})
	z := authority.NewZone("scan.test.", 60)
	z.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.7")})
	auth.AddZone(z)
	srv := dnsserver.New(auth)
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return bound.String(), srv
}

// startSilentPort reads UDP datagrams on loopback, counts them and never
// answers; nothing listens on its port over TCP.
func startSilentPort(t *testing.T) (string, *atomic.Int64) {
	t.Helper()
	pc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	var read atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		b := make([]byte, 2048)
		for {
			if _, _, err := pc.ReadFromUDPAddrPort(b); err != nil {
				return
			}
			read.Add(1)
		}
	}()
	t.Cleanup(func() {
		pc.Close()
		<-done
	})
	return pc.LocalAddr().String(), &read
}

// masked blanks what differs from run to run in bulk output: each
// answer's rtt, and the summary's elapsed time and q/s.
func masked(out string) string {
	return regexp.MustCompile(`rtt=\S+|in \S+ \(\d+ q/s`).ReplaceAllStringFunc(out, func(m string) string {
		if strings.HasPrefix(m, "rtt=") {
			return "rtt=x"
		}
		return "in x (y q/s"
	})
}

// TestBulkScanEndToEnd runs ecsscan -targets in process against a
// loopback authority: answering targets, one given by hostname, which is
// reported unreachable without a datagram sent, and a silent port that
// costs three timed-out attempts and a refused TCP fallback. Lines come in the order their probes end, so the test holds
// their set and the summary exactly, and the summary's "udp sent" is
// what the servers read — the count the benchmark's authdns_received
// check compares with the authority's.
func TestBulkScanEndToEnd(t *testing.T) {
	addr, srv := startZoneServer(t)
	silent, silentRead := startSilentPort(t)
	_, port, err := net.SplitHostPort(addr)
	if err != nil {
		t.Fatal(err)
	}
	lines := []string{addr, "# a comment", addr, silent, "localhost:" + port, addr}
	file := filepath.Join(t.TempDir(), "targets.txt")
	if err := os.WriteFile(file, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := bulkScan(context.Background(), &out, file, dnswire.MustParseName("scan.test"), 2, 0, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	answered := " rcode=NOERROR answers=1 edns=true rtt=x\n"
	pad := func(target string) string { return target + strings.Repeat(" ", max(0, 24-len(target))) }
	want := pad(addr) + answered +
		pad(addr) + answered +
		pad(silent) + " unreachable: dial tcp " + silent + ": connect: connection refused\n" +
		pad("localhost:"+port) + " unreachable: " + errHostname.Error() + "\n" +
		pad(addr) + answered +
		"\n5 targets: 3 responding, 2 unreachable in x (y q/s; 6 udp sent, 2 retries, 1 tcp fallbacks)\n"
	if got := masked(out.String()); sortedLines(got) != sortedLines(want) || !strings.HasSuffix(got, "\n5 targets: 3 responding, 2 unreachable in x (y q/s; 6 udp sent, 2 retries, 1 tcp fallbacks)\n") {
		t.Fatalf("bulk output:\n%s\nwant, in any order of result lines:\n%s", got, want)
	}
	if sent, read := int64(6), srv.Stats().Received+silentRead.Load(); read != sent {
		t.Fatalf("servers read %d datagrams, the summary says %d udp sent", read, sent)
	}
}

// sortedLines is out's lines in sorted order.
func sortedLines(out string) string {
	lines := strings.Split(out, "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestBulkScanInterruptDrains interrupts a sweep whose targets answer
// 200 ms after they are asked, once the first three have been asked:
// the three in flight end with their answers, the fourth never starts,
// and nothing is printed as unreachable. When the interrupt reached each
// exchange, the summary read "0 responding, 3 unreachable".
func TestBulkScanInterruptDrains(t *testing.T) {
	read := make(chan struct{}, 4)
	target := startAnswerResponder(t, 200*time.Millisecond, read)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for i := 0; i < 3; i++ {
			<-read
		}
		cancel()
	}()
	var out bytes.Buffer
	targets := strings.Repeat(target+",", 3) + target
	if err := bulkScan(ctx, &out, targets, dnswire.MustParseName("scan.test"), 3, 0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	line := target + strings.Repeat(" ", max(0, 24-len(target))) + " rcode=NOERROR answers=1 edns=true rtt=x\n"
	want := strings.Repeat(line, 3) +
		"\n4 targets: 3 responding, 0 unreachable in x (y q/s; 3 udp sent, 0 retries, 0 tcp fallbacks)\n" +
		"interrupted: partial results for 3 of 4 targets\n"
	if got := masked(out.String()); got != want {
		t.Fatalf("bulk output:\n%s\nwant:\n%s", got, want)
	}
}

// TestResultFormatGolden pins the bytes of the bulk output: the
// benchmark and anyone's scripts read these lines.
func TestResultFormatGolden(t *testing.T) {
	targets := []string{"192.0.2.1:53", "[2001:db8::1]:53", "a-resolver-with-a-long-name.example:5353", "198.51.100.7:53", "never.started:53"}
	results := []probeResult{ // the fifth target's probe never ended
		{outcome: probeAnswered, rcode: dnswire.RCodeNoError, answers: 1, edns: true, rtt: 1499 * time.Microsecond},
		{outcome: probeAnswered, rcode: dnswire.RCodeServFail, rtt: 2*time.Second + 500*time.Millisecond},
		{outcome: probeUnreachable, err: errors.New("dial tcp: connection refused")},
		{outcome: probeBadName, err: dnswire.ErrNameTooLong},
	}
	var out bytes.Buffer
	b := &bulk{out: bufio.NewWriter(&out), targets: len(targets), started: 5, answered: 2, failing: 2}
	for i, r := range results {
		b.out.Write(append(appendResult(nil, []byte(targets[i]), &r), '\n'))
	}
	b.writeSummary(1234567*time.Microsecond, dnsclient.PipelineStats{Sent: 9, Retries: 4, TCPFallbacks: 1})
	if err := b.out.Flush(); err != nil {
		t.Fatal(err)
	}
	const want = "192.0.2.1:53             rcode=NOERROR answers=1 edns=true rtt=1ms\n" +
		"[2001:db8::1]:53         rcode=SERVFAIL answers=0 edns=false rtt=2.5s\n" +
		"a-resolver-with-a-long-name.example:5353 unreachable: dial tcp: connection refused\n" +
		"198.51.100.7:53          bad probe name: dnswire: domain name exceeds 255 octets\n" +
		"\n5 targets: 2 responding, 2 unreachable in 1.235s (4 q/s; 9 udp sent, 4 retries, 1 tcp fallbacks)\n"
	if got := out.String(); got != want {
		t.Fatalf("bulk output:\n%q\nwant:\n%q", got, want)
	}
}

// parseTargets reads lines as a bulk scan does and returns the text each
// target's result line names it by.
func parseTargets(lines []string) ([]string, error) {
	b := newBulk(dnswire.Root, strings.NewReader(strings.Join(lines, "\n")), nil, 1)
	var targets []string
	for line, ok := b.nextLine(true); ok; line, ok = b.nextLine(true) {
		t, _, err := parseTarget(nil, line)
		if err != nil {
			return nil, err
		}
		targets = append(targets, string(t))
	}
	return targets, b.err
}

func TestParseTargets(t *testing.T) {
	lines := []string{
		"192.0.2.1",
		"192.0.2.1:5353",
		"2001:db8::1", // a colon, but no port: the parent took this for host:port
		"[2001:db8::1]:5353",
		"[2001:db8::2]",
		"resolver.example",
		"resolver.example:5353",
		"# a comment",
		"",
		"   198.51.100.7  ",
	}
	want := []string{
		"192.0.2.1:53",
		"192.0.2.1:5353",
		"[2001:db8::1]:53",
		"[2001:db8::1]:5353",
		"[2001:db8::2]:53",
		"resolver.example:53",
		"resolver.example:5353",
		"198.51.100.7:53",
	}
	got, err := parseTargets(lines)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("targets:\n%q\nwant:\n%q", got, want)
	}
	for _, bad := range []string{"not a host", "1:2:3", "host:port", "host:99999", ":53", "a..b", "[::1",
		"192.0.2.1:0", "[2001:db8::1]:0", "resolver.example:0"} {
		_, err := parseTargets([]string{"192.0.2.1", bad})
		if err == nil || !strings.Contains(err.Error(), `"`+bad+`"`) {
			t.Errorf("parseTargets(%q) error = %v, want one naming the line", bad, err)
		}
	}
}

// TestCheckResolver: -resolver takes an address; a hostname is a
// start-up error that names the flag.
func TestCheckResolver(t *testing.T) {
	for _, tc := range []struct {
		target string
		ok     bool
	}{
		{"127.0.0.1:5301", true}, {"[::1]:53", true}, {"resolver.example:53", false}, {"localhost:5301", false},
	} {
		if err := checkResolver(tc.target); (err == nil) != tc.ok || err != nil && !strings.HasPrefix(err.Error(), "-resolver ") {
			t.Errorf("checkResolver(%q) = %v, want ok=%v, an error naming -resolver", tc.target, err, tc.ok)
		}
	}
}

// TestParseIPv4 holds the address fast path to what normalizeTarget makes
// of the same line: a line it takes is reported by the same text and
// probed at the same address, and one it leaves goes to normalizeTarget.
func TestParseIPv4(t *testing.T) {
	for _, tc := range []struct {
		line string
		fast bool
	}{
		{"192.0.2.1", true}, {"192.0.2.1:53", true}, {"0.0.0.0:1", true},
		{"255.255.255.255:65535", true}, {"1.2.3.4:053", true}, {"10.0.0.1:00053", true},
		{"256.1.1.1", false}, {"01.2.3.4", false}, {"1.2.3", false}, {"1.2.3.4.5", false},
		{"1.2.3.4:", false}, {"1.2.3.4:0", false}, {"1.2.3.4:65536", false},
		{"1.2.3.4:99999999999999999999", false}, {"1.2.3.4x", false}, {"1.2.3.4:5a", false},
		{"1.2.3.4:+53", false}, {"[1.2.3.4]:53", false}, {"::ffff:1.2.3.4", false}, {"1234.1.1.1", false},
	} {
		ap, hasPort, ok := parseIPv4([]byte(tc.line))
		if ok != tc.fast {
			t.Errorf("parseIPv4(%q) ok = %v, want %v", tc.line, ok, tc.fast)
			continue
		}
		if !ok {
			continue
		}
		text, err := normalizeTarget(tc.line)
		if err != nil {
			t.Errorf("parseIPv4 took %q, which normalizeTarget refuses: %v", tc.line, err)
			continue
		}
		got, _, _ := parseTarget(nil, []byte(tc.line))
		if want, _ := netip.ParseAddrPort(text); string(got) != text || ap != want || hasPort != strings.Contains(tc.line, ":") {
			t.Errorf("parseIPv4(%q) = %v %q, normalizeTarget %v %q", tc.line, ap, got, want, text)
		}
	}
}

// TestBulkScanStdin reads -targets - from standard input. The third
// and fourth targets name a host: each is reported unreachable at once,
// with no datagram sent and no lookup, and the scan goes on.
func TestBulkScanStdin(t *testing.T) {
	fast := startAnswerResponder(t, 0, nil)
	slow := startAnswerResponder(t, 100*time.Millisecond, nil)
	_, port, err := net.SplitHostPort(fast)
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 300 * time.Millisecond
	host := "lookup.scan.test:" + port
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer func(stdin *os.File) { os.Stdin = stdin }(os.Stdin)
	os.Stdin = r
	go func() {
		w.WriteString(fast + "\n" + slow + "\n" + host + "\n" + host + "\n")
		w.Close()
	}()
	var out bytes.Buffer
	if err := bulkScan(context.Background(), &out, "-", dnswire.MustParseName("scan.test"), 2, 0, timeout); err != nil {
		t.Fatal(err)
	}
	r.Close()
	pad := func(target string) string { return target + strings.Repeat(" ", max(0, 24-len(target))) }
	answered := " rcode=NOERROR answers=1 edns=true rtt=x\n"
	unreachable := " unreachable: " + errHostname.Error() + "\n"
	want := pad(fast) + answered + pad(slow) + answered + pad(host) + unreachable + pad(host) + unreachable +
		"\n4 targets: 2 responding, 2 unreachable in x (y q/s; 2 udp sent, 0 retries, 0 tcp fallbacks)\n"
	if got := masked(out.String()); sortedLines(got) != sortedLines(want) || !strings.HasSuffix(got, "\n4 targets: 2 responding, 2 unreachable in x (y q/s; 2 udp sent, 0 retries, 0 tcp fallbacks)\n") {
		t.Fatalf("bulk output:\n%s\nwant, in any order of result lines:\n%s", got, want)
	}
}

// TestBulkScanStdinInterrupt interrupts a scan of standard input whose
// writer never closes it: the drain ends the run without reading on, and
// the summary's total is the targets read.
func TestBulkScanStdinInterrupt(t *testing.T) {
	read := make(chan struct{}, 4)
	target := startAnswerResponder(t, 200*time.Millisecond, read)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	defer r.Close()
	defer func(stdin *os.File) { os.Stdin = stdin }(os.Stdin)
	os.Stdin = r
	if _, err := w.WriteString(strings.Repeat(target+"\n", 4)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for i := 0; i < 3; i++ {
			<-read
		}
		cancel()
	}()
	var out bytes.Buffer
	ended := make(chan error, 1)
	go func() { ended <- bulkScan(ctx, &out, "-", dnswire.MustParseName("scan.test"), 3, 0, 2*time.Second) }()
	select {
	case err := <-ended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the interrupted scan kept reading standard input")
	}
	line := target + strings.Repeat(" ", max(0, 24-len(target))) + " rcode=NOERROR answers=1 edns=true rtt=x\n"
	want := strings.Repeat(line, 3) +
		"\n3 targets: 3 responding, 0 unreachable in x (y q/s; 3 udp sent, 0 retries, 0 tcp fallbacks)\n" +
		"interrupted: partial results for 3 of 3 targets\n"
	if got := masked(out.String()); got != want {
		t.Fatalf("bulk output:\n%s\nwant:\n%s", got, want)
	}
}

// TestBulkScanInterruptDuringRead interrupts a scan while its loop waits
// for the next line of standard input, then sends that line: the line is
// neither read nor counted, and no probe is started for it.
func TestBulkScanInterruptDuringRead(t *testing.T) {
	read := make(chan struct{}, 2)
	target := startAnswerResponder(t, 0, read)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	defer func(stdin *os.File) { os.Stdin = stdin }(os.Stdin)
	os.Stdin = r
	if _, err := w.WriteString(target + "\n"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-read
		time.Sleep(100 * time.Millisecond) // the loop is back in its read by now
		cancel()
		w.WriteString(target + "\n")
		w.Close()
	}()
	var out bytes.Buffer
	if err := bulkScan(ctx, &out, "-", dnswire.MustParseName("scan.test"), 1, 0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	got := masked(out.String())
	line := target + strings.Repeat(" ", max(0, 24-len(target))) + " rcode=NOERROR answers=1 edns=true rtt=x\n"
	want := line + "\n1 targets: 1 responding, 0 unreachable in x (y q/s; 1 udp sent, 0 retries, 0 tcp fallbacks)\n" +
		"interrupted: partial results for 1 of 1 targets\n"
	if got != want {
		t.Fatalf("bulk output:\n%s\nwant:\n%s", got, want)
	}
}

// TestBulkScanInterruptWhileInputWaits interrupts a scan of standard
// input whose writer sends two lines and then holds it open: the wait
// for a third line ends with the interrupt, not with the input. When
// the loop read its input itself, the scan ran until the writer wrote
// again or closed.
func TestBulkScanInterruptWhileInputWaits(t *testing.T) {
	read := make(chan struct{}, 2)
	target := startAnswerResponder(t, 0, read)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	defer r.Close()
	defer func(stdin *os.File) { os.Stdin = stdin }(os.Stdin)
	os.Stdin = r
	if _, err := w.WriteString(strings.Repeat(target+"\n", 2)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	ended := make(chan error, 1)
	go func() { ended <- bulkScan(ctx, &out, "-", dnswire.MustParseName("scan.test"), 1, 0, 2*time.Second) }()
	<-read
	<-read
	time.Sleep(100 * time.Millisecond) // the loop waits for a third line by now
	cancel()
	select {
	case err := <-ended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("the interrupted scan still waits for standard input a second later")
	}
	line := target + strings.Repeat(" ", max(0, 24-len(target))) + " rcode=NOERROR answers=1 edns=true rtt=x\n"
	want := strings.Repeat(line, 2) +
		"\n2 targets: 2 responding, 0 unreachable in x (y q/s; 2 udp sent, 0 retries, 0 tcp fallbacks)\n" +
		"interrupted: partial results for 2 of 2 targets\n"
	if got := masked(out.String()); got != want {
		t.Fatalf("bulk output:\n%s\nwant:\n%s", got, want)
	}
}

// TestBulkScanAnswersWhileInputWaits feeds standard input a live target
// and a dead one, then holds it open for a second before it sends a third
// target and closes it. The loop takes the first answer, and the dead
// target's timeouts, retries and TCP fallback, while it waits for that
// line: the first line's rtt= is the round trip, the dead target's line
// comes before the third target's, and the scan ends just after the third
// line. When the probe waited for input inside the loop, the first two
// attempts went out only with the third line: rtt=1s, the dead target's
// line last, half a second after it.
func TestBulkScanAnswersWhileInputWaits(t *testing.T) {
	live := startAnswerResponder(t, 0, nil)
	later := startAnswerResponder(t, 0, nil)
	dead, _ := startSilentPort(t)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	defer func(stdin *os.File) { os.Stdin = stdin }(os.Stdin)
	os.Stdin = r
	if _, err := w.WriteString(live + "\n" + dead + "\n"); err != nil {
		t.Fatal(err)
	}
	sent := make(chan time.Time, 1)
	go func() {
		time.Sleep(time.Second)
		sent <- time.Now()
		w.WriteString(later + "\n")
		w.Close()
	}()
	// A sweep deaf to the input's wake sleeps once the dead target ends:
	// the deadline turns that hang into a run without the third line.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var out bytes.Buffer
	if err := bulkScan(ctx, &out, "-", dnswire.MustParseName("scan.test"), 4, 0, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	tail := time.Since(<-sent)
	lines := strings.Split(out.String(), "\n")
	if len(lines) < 3 || !strings.HasPrefix(lines[0], live+" ") || !strings.HasPrefix(lines[1], dead+" ") || !strings.HasPrefix(lines[2], later+" ") {
		t.Fatalf("bulk output:\n%s\nwant the live target's line, the dead one's, then the third's", out.String())
	}
	rtt, err := time.ParseDuration(strings.TrimPrefix(regexp.MustCompile(`rtt=\S+`).FindString(lines[0]), "rtt="))
	if err != nil || rtt >= 100*time.Millisecond {
		t.Fatalf("first line %q: rtt %v (%v), want under 100ms", lines[0], rtt, err)
	}
	if tail > 500*time.Millisecond {
		t.Fatalf("the scan ended %v after its last line was sent, want within 500ms", tail)
	}
}

// TestBulkScanRate scans four targets at -rate 5 with -concurrency 1: a
// burst of one, then a token every 200 ms, so the scan takes at least
// 600 ms. Each rtt= is still the round trip, not the wait for a token,
// and the summary reads as an unpaced scan's does.
func TestBulkScanRate(t *testing.T) {
	target := startAnswerResponder(t, 0, nil)
	var out bytes.Buffer
	if err := bulkScan(context.Background(), &out, strings.Repeat(target+",", 3)+target, dnswire.MustParseName("scan.test"), 1, 5, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile(`rtt=(\S+)`).FindAllStringSubmatch(out.String(), -1) {
		if rtt, err := time.ParseDuration(m[1]); err != nil || rtt >= 100*time.Millisecond {
			t.Errorf("rtt %v (%v), want the round trip, under 100ms", m[1], err)
		}
	}
	summary := regexp.MustCompile(`\n\n4 targets: 4 responding, 0 unreachable in (\S+) \((\d+) q/s; 4 udp sent, 0 retries, 0 tcp fallbacks\)\n$`).FindStringSubmatch(out.String())
	if summary == nil {
		t.Fatalf("bulk output:\n%s\nwant four answers and the summary line", out.String())
	}
	elapsed, err := time.ParseDuration(summary[1])
	if qps, _ := strconv.Atoi(summary[2]); err != nil || elapsed < 600*time.Millisecond || qps > 7 {
		t.Fatalf("summary %q: in %v at %s q/s, want at least 600ms at most 7 q/s", summary[0], elapsed, summary[2])
	}
}

// writeTargetFile writes n lines naming target to a file and returns its
// path.
func writeTargetFile(tb testing.TB, target string, n int) string {
	tb.Helper()
	file := filepath.Join(tb.TempDir(), "targets.txt")
	if err := os.WriteFile(file, []byte(repeatTargets(target, n)), 0o644); err != nil {
		tb.Fatal(err)
	}
	return file
}

// scanAlloc runs bulkScan over the target file and returns the bytes it
// allocated, its goroutines' and the responder's together.
func scanAlloc(t *testing.T, file string) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := bulkScan(context.Background(), io.Discard, file, dnswire.MustParseName("mem.scan.test"), 64, 0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBulkScanMemoryPerTarget holds a bulk scan to a cost per target
// that does not depend on how many targets there are: what it allocates
// beyond a one-target scan, per target, is the same at both sizes and
// within perTargetBound. A scan that keeps a slice entry, a map entry or
// a result per target reads about 200 B more per target here.
func TestBulkScanMemoryPerTarget(t *testing.T) {
	const perTargetBound = 64 // bytes: the probe name's string and change
	target := startAnswerResponder(t, 0, nil)
	small, large := 20_000, 200_000
	if raceEnabled {
		small, large = 2_000, 20_000
	}
	base := scanAlloc(t, writeTargetFile(t, target, 1))
	per := func(n int) float64 {
		return float64(scanAlloc(t, writeTargetFile(t, target, n))-base) / float64(n-1)
	}
	perSmall, perLarge := per(small), per(large)
	t.Logf("%.1f B/target at %d targets, %.1f at %d", perSmall, small, perLarge, large)
	if raceEnabled {
		return // the race detector's own allocations bury the figure
	}
	if perSmall > perTargetBound || perLarge > perTargetBound || math.Abs(perLarge-perSmall) > perTargetBound/4 {
		t.Fatalf("a bulk scan allocates %.1f B/target at %d targets and %.1f at %d, want both <= %d and within %d of each other",
			perSmall, small, perLarge, large, perTargetBound, perTargetBound/4)
	}
}

// BenchmarkBulkScan runs the whole of ecsscan -targets in process: b.N
// targets read from a file, probed against a loopback responder and
// written to io.Discard. An op is one target.
func BenchmarkBulkScan(b *testing.B) {
	target := startAnswerResponder(b, 0, nil)
	file := writeTargetFile(b, target, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	if err := bulkScan(context.Background(), io.Discard, file, dnswire.MustParseName("bench.scan.test"), 64, 0, 2*time.Second); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "targets/s")
}
