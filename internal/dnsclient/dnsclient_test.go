package dnsclient

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnsserver"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
)

// Socket-level integration of Client lives in package dnsserver's tests;
// these cover the validation and option-extraction logic.

func TestValidate(t *testing.T) {
	q := dnswire.NewQuery(42, "www.example.org.", dnswire.TypeA)
	good := dnswire.NewResponse(q)
	if err := validate(q, good); err != nil {
		t.Fatalf("valid response rejected: %v", err)
	}

	badID := dnswire.NewResponse(q)
	badID.ID = 43
	if err := validate(q, badID); err != ErrIDMismatch {
		t.Fatalf("ID mismatch: %v", err)
	}

	notResponse := dnswire.NewQuery(42, "www.example.org.", dnswire.TypeA)
	if err := validate(q, notResponse); err == nil {
		t.Fatal("QR-less message accepted")
	}

	wrongQ := dnswire.NewResponse(dnswire.NewQuery(42, "other.example.org.", dnswire.TypeA))
	if err := validate(q, wrongQ); err != ErrMismatch {
		t.Fatalf("question mismatch: %v", err)
	}

	empty := &dnswire.Message{Header: dnswire.Header{ID: 42, Response: true}}
	if err := validate(q, empty); err != ErrMismatch {
		t.Fatalf("empty question section: %v", err)
	}
}

func TestECSFromResponse(t *testing.T) {
	m := dnswire.NewResponse(dnswire.NewQuery(1, "x.example.", dnswire.TypeA))
	if _, ok := ECSFromResponse(m); ok {
		t.Fatal("phantom option")
	}
	cs := ecsopt.MustNew(netip.MustParseAddr("203.0.113.0"), 24).WithScope(20)
	ecsopt.Attach(m, cs)
	got, ok := ECSFromResponse(m)
	if !ok || got != cs {
		t.Fatalf("got %v %v", got, ok)
	}
	// Malformed options are reported as absent, not as an error: the
	// client treats them like a non-ECS response.
	m.EDNS.SetOption(dnswire.Option{Code: dnswire.OptionCodeECS, Data: []byte{0, 9}})
	if _, ok := ECSFromResponse(m); ok {
		t.Fatal("malformed option accepted")
	}
}

func TestClientDefaults(t *testing.T) {
	c := &Client{}
	if c.timeout() == 0 || c.retries() == 0 {
		t.Fatal("zero-value client defaults missing")
	}
	id1 := c.randID()
	id2 := c.randID()
	if id1 == id2 {
		// Possible but vanishingly unlikely; try once more.
		if c.randID() == id1 {
			t.Fatal("randID not random")
		}
	}
}

// Socket round trips in-package so coverage reflects the client's own
// paths (the server side is exercised again in package dnsserver).
func startEchoServer(t *testing.T) string {
	t.Helper()
	auth := authority.NewServer(authority.Config{
		ECSEnabled: true,
		Scope:      authority.ScopeFixed(24),
	})
	z := authority.NewZone("cli.test.", 60)
	z.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.7")})
	for i := 0; i < 80; i++ {
		z.MustAdd(dnswire.RR{Name: "fat.cli.test.", Data: &dnswire.ARData{
			Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)}),
		}})
	}
	auth.AddZone(z)
	srv := dnsserver.New(auth)
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return bound.String()
}

func TestQueryUDPPath(t *testing.T) {
	addr := startEchoServer(t)
	c := &Client{Timeout: 2 * time.Second}
	cs := ecsopt.MustNew(netip.MustParseAddr("203.0.113.0"), 24)
	resp, err := c.Query(addr, "www.cli.test.", dnswire.TypeA, &cs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %d", len(resp.Answers))
	}
	got, ok := ECSFromResponse(resp)
	if !ok || got.ScopePrefix != 24 {
		t.Fatalf("ECS echo = %v %v", got, ok)
	}
}

func TestExchangeTCPFallbackPath(t *testing.T) {
	addr := startEchoServer(t)
	c := &Client{Timeout: 2 * time.Second}
	q := dnswire.NewQuery(1, "fat.cli.test.", dnswire.TypeA)
	q.EDNS = &dnswire.EDNS{UDPSize: 512}
	resp, err := c.Exchange(addr, q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Truncated || len(resp.Answers) != 80 {
		t.Fatalf("fallback failed: tc=%v answers=%d", resp.Truncated, len(resp.Answers))
	}
}

func TestForceTCPPath(t *testing.T) {
	addr := startEchoServer(t)
	c := &Client{Timeout: 2 * time.Second, ForceTCP: true}
	resp, err := c.Query(addr, "www.cli.test.", dnswire.TypeA, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("TCP answers = %d", len(resp.Answers))
	}
}

func TestExchangeUnreachable(t *testing.T) {
	c := &Client{Timeout: 200 * time.Millisecond, Retries: 1}
	if _, err := c.Query("127.0.0.1:1", "x.cli.test.", dnswire.TypeA, nil); err == nil {
		t.Fatal("unreachable server answered")
	}
}

func TestExchangePreservesZeroID(t *testing.T) {
	// ID 0 is a legitimate transaction ID: Exchange must send it as-is
	// and accept the matching response, not conflate it with "unset".
	addr := startEchoServer(t)
	c := &Client{Timeout: 2 * time.Second}
	q := dnswire.NewQuery(0, "www.cli.test.", dnswire.TypeA)
	q.EDNS = dnswire.NewEDNS()
	resp, err := c.Exchange(addr, q)
	if err != nil {
		t.Fatal(err)
	}
	if q.ID != 0 {
		t.Fatalf("zero transaction ID rewritten to %d", q.ID)
	}
	if resp.ID != 0 {
		t.Fatalf("response ID = %d, want 0", resp.ID)
	}
}

func TestRetriesSemantics(t *testing.T) {
	for _, tc := range []struct {
		set  int
		want int
	}{
		{0, 2},         // zero value keeps the default
		{NoRetries, 0}, // explicit opt-out
		{-7, 0},        // any negative disables
		{5, 5},
	} {
		if got := (&Client{Retries: tc.set}).retries(); got != tc.want {
			t.Errorf("Retries=%d: retries() = %d, want %d", tc.set, got, tc.want)
		}
	}
}

// TestUDPAttemptCounts verifies retry semantics on the wire: a silent
// server sees exactly 1 + retries() datagrams before the TCP fallback.
func TestUDPAttemptCounts(t *testing.T) {
	for _, tc := range []struct {
		retries int
		want    int32
	}{
		{NoRetries, 1},
		{0, 3}, // default: first attempt + 2 retries
	} {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var count atomic.Int32
		var reader sync.WaitGroup
		reader.Add(1)
		go func() {
			defer reader.Done()
			buf := make([]byte, 2048)
			for {
				if _, _, err := pc.ReadFrom(buf); err != nil {
					return
				}
				count.Add(1)
			}
		}()
		c := &Client{Timeout: 100 * time.Millisecond, Retries: tc.retries}
		// The UDP attempts time out; the TCP fallback then fails fast
		// (nothing listens on the TCP port).
		if _, err := c.Query(pc.LocalAddr().String(), "x.cli.test.", dnswire.TypeA, nil); err == nil {
			t.Fatalf("Retries=%d: silent server answered", tc.retries)
		}
		if got := count.Load(); got != tc.want {
			t.Errorf("Retries=%d: %d UDP attempts, want %d", tc.retries, got, tc.want)
		}
		pc.Close()
		reader.Wait()
	}
}

// nilDataQuery is a query that does not pack: its additional record
// carries no data.
func nilDataQuery(name string) *dnswire.Message {
	q := dnswire.NewQuery(9, dnswire.MustParseName(name), dnswire.TypeA)
	q.Additionals = append(q.Additionals, dnswire.RR{Name: q.Questions[0].Name})
	return q
}

// TestUnpackableQueryFailsAtOnce: a query that does not pack is the pack
// error, at once, on every exchange path, not an empty datagram sent and
// a timeout waited out.
func TestUnpackableQueryFailsAtOnce(t *testing.T) {
	addr := startEchoServer(t)
	c := &Client{Timeout: 2 * time.Second}
	p := newTestPipeline(t, PipelineConfig{Timeout: 2 * time.Second})
	for _, tc := range []struct {
		path string
		run  func() error
	}{
		{"Exchange", func() error { _, err := c.Exchange(addr, nilDataQuery("x.cli.test.")); return err }},
		{"ExchangeUDP", func() error { _, err := c.ExchangeUDP(addr, nilDataQuery("x.cli.test.")); return err }},
		{"Pipeline", func() error {
			_, err := p.Exchange(context.Background(), addr, nilDataQuery("x.cli.test."))
			return err
		}},
	} {
		start := time.Now()
		err := tc.run()
		if err == nil || !strings.Contains(err.Error(), "nil rdata") {
			t.Errorf("%s: err = %v, want the pack error", tc.path, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: failed after %v, want at once", tc.path, d)
		}
	}
}

// answerWire packs an authority's answer to the query in pkt: one A
// record, with RD clear, as an authority that ignores RD answers.
func answerWire(pkt []byte) ([]byte, error) {
	q, err := dnswire.Unpack(pkt)
	if err != nil {
		return nil, err
	}
	resp := dnswire.NewResponse(q)
	resp.RecursionDesired = false
	resp.Answers = append(resp.Answers, dnswire.RR{
		Name: q.Questions[0].Name, TTL: 60,
		Data: &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.9")},
	})
	return resp.Pack()
}

// promised answers the query in pkt with its own bytes, QR set and one
// answer record promised that is not there: the question decodes, the
// message does not.
func promised(pkt []byte) []byte {
	out := append([]byte(nil), pkt...)
	out[2] |= 0x80
	out[7] = 1 // ANCOUNT
	return out
}

// checkGenuine fails unless resp is answerWire's answer.
func checkGenuine(t *testing.T, path string, resp *dnswire.Message, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(resp.Answers) != 1 || resp.RecursionDesired {
		t.Fatalf("%s: answered by %v, want the genuine answer", path, resp)
	}
}

// TestUndecodableDatagramIgnored: a datagram whose ID and question match
// but whose body does not decode is not the answer. The client keeps
// waiting and returns the genuine answer that follows; the pipeline,
// sent nothing else, times out. Either takes a genuine answer whose RD
// bit is clear: it is a response by its QR bit alone.
func TestUndecodableDatagramIgnored(t *testing.T) {
	var genuine, undecodable atomic.Bool
	server, _ := serveUDP(t, "127.0.0.1:0", func(pc *net.UDPConn, pkt []byte, src netip.AddrPort) {
		if undecodable.Load() {
			pc.WriteToUDPAddrPort(promised(pkt), src)
		}
		if genuine.Load() {
			answer, err := answerWire(pkt)
			if err != nil {
				t.Error(err)
				return
			}
			pc.WriteToUDPAddrPort(answer, src)
		}
	})
	c := &Client{Timeout: 2 * time.Second, Retries: NoRetries}
	p := newTestPipeline(t, PipelineConfig{Timeout: 200 * time.Millisecond})

	genuine.Store(true)
	resp, err := p.Exchange(context.Background(), server.String(), pipeQuery("www.cli.test."))
	checkGenuine(t, "Pipeline", resp, err)

	undecodable.Store(true)
	resp, err = c.Exchange(server.String(), ringQuery(7, "www.cli.test."))
	checkGenuine(t, "Client", resp, err)

	genuine.Store(false)
	if resp, err := p.Exchange(context.Background(), server.String(), pipeQuery("www.cli.test.")); err == nil {
		t.Fatalf("Pipeline accepted %v", resp)
	}
}

// TestUndecodableTCPAnswerFails: over TCP the one framed answer is the
// answer, so one that does not decode is an error, on both clients. The
// pipeline reaches TCP through a truncated UDP answer on the same port.
func TestUndecodableTCPAnswerFails(t *testing.T) {
	var (
		ln     net.Listener
		server netip.AddrPort
	)
	for try := 0; ln == nil; try++ {
		server, _ = serveUDP(t, "127.0.0.1:0", func(pc *net.UDPConn, pkt []byte, src netip.AddrPort) {
			out := promised(pkt)
			out[2] |= 0x02 // TC
			out[7] = 0
			pc.WriteToUDPAddrPort(out, src)
		})
		l, err := net.Listen("tcp", server.String())
		if err != nil && try == 4 {
			t.Fatalf("no TCP listener beside UDP port %d: %v", server.Port(), err)
		}
		ln = l
	}
	var conns sync.WaitGroup
	t.Cleanup(func() { ln.Close(); conns.Wait() })
	conns.Add(1)
	go func() {
		defer conns.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			var lenBuf [2]byte
			if _, err := io.ReadFull(conn, lenBuf[:]); err == nil {
				pkt := make([]byte, binary.BigEndian.Uint16(lenBuf[:]))
				if _, err := io.ReadFull(conn, pkt); err == nil {
					out := promised(pkt)
					conn.Write(append(binary.BigEndian.AppendUint16(nil, uint16(len(out))), out...))
				}
			}
			conn.Close()
		}
	}()

	c := &Client{Timeout: 2 * time.Second, ForceTCP: true}
	if resp, err := c.Exchange(server.String(), ringQuery(8, "www.cli.test.")); err == nil {
		t.Errorf("Client accepted %v", resp)
	}
	p := newTestPipeline(t, PipelineConfig{Timeout: 2 * time.Second})
	if resp, err := p.Exchange(context.Background(), server.String(), pipeQuery("www.cli.test.")); err == nil {
		t.Errorf("Pipeline accepted %v", resp)
	}
}
