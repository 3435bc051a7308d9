package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"regexp"
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
	"ecsdns/internal/scanner"
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
func startAnswerResponder(t *testing.T, delay time.Duration, read chan<- struct{}) string {
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

// TestAllocGateBulkProbe is the end-to-end half of the allocation gates:
// the codec and the pipeline are each held to their own figure, and this
// holds the call site that uses them — ecsscan's probe and done on
// Pipeline.Sweep — to what a never-seen probe name must cost: the name
// itself, and the question and owner names UnpackInto has to make for
// it. A sweep's slots, set up once per sweep, are spread over its 4096
// probes. A loop that builds a query, a response and a result line per
// probe reads 17 here.
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
	targets := make([]string, probes)
	for i := range targets {
		targets[i] = target
	}
	run := 0
	sweep := func() {
		// A base of its own per sweep: no probe name repeats.
		run++
		b := newBulk(dnswire.MustParseName("run"+strconv.Itoa(run)+".gate.scan.test"), targets)
		b.start = time.Now()
		if err := pipe.Sweep(context.Background(), probes, 64, nil, b.probe, b.done); err != nil {
			t.Fatal(err)
		}
		for i := range b.results {
			if r := &b.results[i]; r.outcome != probeAnswered || r.rcode != dnswire.RCodeNoError || r.answers != 1 || !r.edns {
				t.Fatalf("probe %d: %+v, want an answered NOERROR with one answer and EDNS", i, *r)
			}
		}
	}
	avg := testing.AllocsPerRun(4, sweep) / probes
	if avg > 4 {
		t.Fatalf("a bulk probe allocates %.2f allocs/probe, want <= 4", avg)
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
	b := newBulk(base, []string{"127.0.0.1:9"})
	if err := pipe.Sweep(context.Background(), 1, 1, nil, b.probe, b.done); err != nil {
		t.Fatal(err)
	}
	r := b.results[0]
	_, want := base.Prepend("bulk0")
	if r.outcome != probeBadName || !errors.Is(r.err, want) || want == nil {
		t.Fatalf("result = %+v, want bad name with %v", r, want)
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
// loopback authority: answering targets, one given by hostname, and a
// silent port that costs three timed-out attempts and a refused TCP
// fallback. Lines come in target order, and the summary's "udp sent" is
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
		pad("localhost:"+port) + answered +
		pad(addr) + answered +
		"\n5 targets: 4 responding, 1 unreachable in x (y q/s; 7 udp sent, 2 retries, 1 tcp fallbacks)\n"
	if got := masked(out.String()); got != want {
		t.Fatalf("bulk output:\n%s\nwant:\n%s", got, want)
	}
	if sent, read := int64(7), srv.Stats().Received+silentRead.Load(); read != sent {
		t.Fatalf("servers read %d datagrams, the summary says %d udp sent", read, sent)
	}
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
	results := []probeResult{
		{outcome: probeAnswered, rcode: dnswire.RCodeNoError, answers: 1, edns: true, rtt: 1499 * time.Microsecond},
		{outcome: probeAnswered, rcode: dnswire.RCodeServFail, rtt: 2*time.Second + 500*time.Millisecond},
		{outcome: probeUnreachable, err: errors.New("dial tcp: connection refused")},
		{outcome: probeBadName, err: dnswire.ErrNameTooLong},
		{},
	}
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	if written := writeResults(w, targets, results); written != 4 {
		t.Fatalf("writeResults wrote %d lines, want 4", written)
	}
	writeSummary(w, len(targets),
		scanner.ProgressSnapshot{Done: 2, Errors: 2, Elapsed: 1234567 * time.Microsecond, QPS: 3.6},
		dnsclient.PipelineStats{Sent: 9, Retries: 4, TCPFallbacks: 1})
	if err := w.Flush(); err != nil {
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
