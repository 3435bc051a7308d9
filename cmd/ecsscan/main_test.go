package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ecsdns/internal/dnsclient"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/scanner"
)

// startAnswerResponder starts a UDP responder that answers every query
// the way the scan's targets do — the question echoed, one A record
// owned by the question name (a compression pointer to it), the query's
// OPT carried over — by splicing bytes, without a decode. It must not
// allocate: testing.AllocsPerRun counts every goroutine's mallocs, so a
// real dnsserver here would put its own per-query allocations on the
// probe's bill.
func startAnswerResponder(t *testing.T) string {
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
			pc.WriteToUDPAddrPort(r, src)
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
// holds the call site that uses them to what a never-seen probe name
// must cost — the name itself, and the question and owner names
// UnpackInto has to make for it. A loop that builds a query, a response
// and a result line per probe reads 17 here.
func TestAllocGateBulkProbe(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	target := startAnswerResponder(t)
	pipe, err := dnsclient.NewPipeline(dnsclient.PipelineConfig{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	base := dnswire.MustParseName("gate.scan.test")
	next := 0
	probe := func() {
		r := bulkProbe(context.Background(), pipe, base, target, next)
		next++
		if r.outcome != probeAnswered || r.rcode != dnswire.RCodeNoError || r.answers != 1 || !r.edns {
			t.Fatalf("probe %d: %+v, want an answered NOERROR with one answer and EDNS", next-1, r)
		}
	}
	for i := 0; i < 64; i++ { // warm the pools
		probe()
	}
	if avg := testing.AllocsPerRun(512, probe); avg > 4 {
		t.Fatalf("bulkProbe allocates %.2f allocs/probe, want <= 4", avg)
	}
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
	r := bulkProbe(context.Background(), pipe, base, "127.0.0.1:9", 0)
	_, want := base.Prepend("bulk0")
	if r.outcome != probeBadName || !errors.Is(r.err, want) || want == nil {
		t.Fatalf("result = %+v, want bad name with %v", r, want)
	}
	if st := pipe.Stats(); st.Sent != 0 {
		t.Fatalf("a probe with a bad name sent %d datagrams", st.Sent)
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
	for _, bad := range []string{"not a host", "1:2:3", "host:port", "host:99999", ":53", "a..b", "[::1"} {
		_, err := parseTargets([]string{"192.0.2.1", bad})
		if err == nil || !strings.Contains(err.Error(), `"`+bad+`"`) {
			t.Errorf("parseTargets(%q) error = %v, want one naming the line", bad, err)
		}
	}
}
