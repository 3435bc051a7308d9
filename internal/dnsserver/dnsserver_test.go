package dnsserver

import (
	"bytes"
	"errors"
	"net"
	"net/netip"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnsclient"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
)

// startTestServer runs an ECS-enabled authoritative server on loopback.
func startTestServer(t *testing.T, big bool) (string, *authority.Server) {
	t.Helper()
	auth := authority.NewServer(authority.Config{
		ECSEnabled: true,
		Scope:      authority.ScopeSourceMinus(4),
	})
	z := authority.NewZone("zone.test.", 60)
	z.MustAdd(dnswire.RR{Name: "www.zone.test.", Data: &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.44")}})
	if big {
		for i := 0; i < 120; i++ {
			z.MustAdd(dnswire.RR{Name: "big.zone.test.", Data: &dnswire.ARData{
				Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)}),
			}})
		}
	}
	auth.AddZone(z)
	srv := New(auth)
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return bound.String(), auth
}

func TestUDPRoundTrip(t *testing.T) {
	addr, _ := startTestServer(t, false)
	c := &dnsclient.Client{Timeout: 2 * time.Second}
	resp, err := c.Query(addr, "www.zone.test.", dnswire.TypeA, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 {
		t.Fatalf("response: %v", resp)
	}
	if got := resp.Answers[0].Data.(*dnswire.ARData).Addr; got != netip.MustParseAddr("192.0.2.44") {
		t.Fatalf("answer = %s", got)
	}
}

func TestECSOverRealSockets(t *testing.T) {
	addr, _ := startTestServer(t, false)
	c := &dnsclient.Client{Timeout: 2 * time.Second}
	cs := ecsopt.MustNew(netip.MustParseAddr("203.0.113.7"), 24)
	resp, err := c.Query(addr, "www.zone.test.", dnswire.TypeA, &cs)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := dnsclient.ECSFromResponse(resp)
	if !ok {
		t.Fatal("no ECS in response")
	}
	if got.ScopePrefix != 20 {
		t.Fatalf("scope = %d, want source-4 = 20", got.ScopePrefix)
	}
	if got.Addr != netip.MustParseAddr("203.0.113.0") {
		t.Fatalf("echoed prefix = %s", got.Addr)
	}
}

func TestTruncationAndTCPFallback(t *testing.T) {
	addr, _ := startTestServer(t, true)
	// A client advertising a small buffer gets TC over UDP and retries
	// over TCP transparently.
	c := &dnsclient.Client{Timeout: 2 * time.Second}
	q := dnswire.NewQuery(1, "big.zone.test.", dnswire.TypeA)
	q.EDNS = &dnswire.EDNS{UDPSize: 512}
	resp, err := c.Exchange(addr, q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Truncated {
		t.Fatal("final response still truncated")
	}
	if len(resp.Answers) != 120 {
		t.Fatalf("answers = %d, want 120 via TCP", len(resp.Answers))
	}
}

func TestForceTCP(t *testing.T) {
	addr, _ := startTestServer(t, false)
	c := &dnsclient.Client{Timeout: 2 * time.Second, ForceTCP: true}
	resp, err := c.Query(addr, "www.zone.test.", dnswire.TypeA, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("TCP answers = %d", len(resp.Answers))
	}
}

func TestConcurrentClients(t *testing.T) {
	addr, _ := startTestServer(t, false)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &dnsclient.Client{Timeout: 3 * time.Second}
			resp, err := c.Query(addr, "www.zone.test.", dnswire.TypeA, nil)
			if err != nil {
				errs <- err
				return
			}
			if len(resp.Answers) != 1 {
				errs <- ErrServerClosed
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestMalformedPacketGetsFormErr(t *testing.T) {
	addr, _ := startTestServer(t, false)
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	// A 12-byte header claiming one question but no body.
	pkt := []byte{0xAB, 0xCD, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}
	if _, err := conn.Write(pkt); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnswire.Unpack(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 0xABCD || resp.RCode != dnswire.RCodeFormErr {
		t.Fatalf("response: %+v", resp.Header)
	}
}

// dropFirstHandler silently drops the first query for each name, then
// answers with enough records to overflow a 512-byte UDP response.
type dropFirstHandler struct {
	mu    sync.Mutex
	seen  map[dnswire.Name]int
	calls int
}

func (h *dropFirstHandler) HandleDNS(_ netip.Addr, q *dnswire.Message) *dnswire.Message {
	name := q.Question().Name
	h.mu.Lock()
	h.calls++
	if h.seen == nil {
		h.seen = make(map[dnswire.Name]int)
	}
	h.seen[name]++
	first := h.seen[name] == 1
	h.mu.Unlock()
	if first {
		return nil
	}
	resp := dnswire.NewResponse(q)
	for i := 0; i < 120; i++ {
		resp.Answers = append(resp.Answers, dnswire.RR{
			Name: name, TTL: 60,
			Data: &dnswire.ARData{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})},
		})
	}
	return resp
}

// TestUDPRetryTruncationTCPFallback drives the whole transport
// escalation end-to-end with the serial client: the first UDP attempt is
// dropped, the retry returns a truncated answer, and the TCP fallback
// delivers all 120 records.
func TestUDPRetryTruncationTCPFallback(t *testing.T) {
	h := &dropFirstHandler{}
	srv := New(h)
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	c := &dnsclient.Client{Timeout: 300 * time.Millisecond, Retries: 2}
	q := dnswire.NewQuery(1, "www.retry.test.", dnswire.TypeA)
	q.EDNS = &dnswire.EDNS{UDPSize: 512}
	resp, err := c.Exchange(bound.String(), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Truncated || len(resp.Answers) != 120 {
		t.Fatalf("tc=%v answers=%d, want full 120 via TCP", resp.Truncated, len(resp.Answers))
	}
	h.mu.Lock()
	calls := h.calls
	h.mu.Unlock()
	if calls < 3 {
		t.Fatalf("handler calls = %d, want ≥ 3 (drop, truncated retry, TCP)", calls)
	}
}

// TestCloseDuringTraffic is the -race regression for the Add-after-Wait
// WaitGroup misuse: Close must never race per-request wg.Add calls from
// the serve loops while it is already waiting.
func TestCloseDuringTraffic(t *testing.T) {
	auth := authority.NewServer(authority.Config{})
	z := authority.NewZone("zone.test.", 60)
	z.MustAdd(dnswire.RR{Name: "www.zone.test.", Data: &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.44")}})
	auth.AddZone(z)
	srv := New(auth)
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	q := dnswire.NewQuery(7, "www.zone.test.", dnswire.TypeA)
	pkt, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("udp", bound.String())
			if err != nil {
				return
			}
			defer conn.Close()
			for {
				select {
				case <-stop:
					return
				default:
					conn.Write(pkt)
				}
			}
		}()
	}
	// Close while the flood is mid-flight: under the old code this is a
	// wg.Add racing wg.Wait.
	time.Sleep(20 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
}

func TestCloseStopsServing(t *testing.T) {
	auth := authority.NewServer(authority.Config{})
	auth.AddZone(authority.NewZone("zone.test.", 60))
	srv := New(auth)
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	c := &dnsclient.Client{Timeout: 300 * time.Millisecond, Retries: 1}
	if _, err := c.Query(bound.String(), "www.zone.test.", dnswire.TypeA, nil); err == nil {
		t.Fatal("closed server still answering")
	}
}

// failListenTCP replaces the listenTCP seam with one that reports the
// first `fail` TCP binds as "address already in use" — what a parallel
// process holding the same port number on TCP looks like — and returns
// counters of the calls made and of the binds past `fail` that the
// kernel itself refused that way: with packages under test in parallel
// another process really can hold the retried port, and Start is then
// right to try once more.
func failListenTCP(t *testing.T, fail int) (calls, collisions *int) {
	t.Helper()
	calls, collisions = new(int), new(int)
	orig := listenTCP
	listenTCP = func(network, addr string) (net.Listener, error) {
		*calls++
		if *calls <= fail {
			return nil, &net.OpError{Op: "listen", Net: network, Err: os.NewSyscallError("bind", syscall.EADDRINUSE)}
		}
		ln, err := orig(network, addr)
		if errors.Is(err, syscall.EADDRINUSE) {
			*collisions++
		}
		return ln, err
	}
	t.Cleanup(func() { listenTCP = orig })
	return calls, collisions
}

// TestStartRetriesEphemeralPortTakenOnTCP: with port 0 the kernel picks
// the UDP port without looking at TCP, so the same number may be taken
// there. Start must move the pair to a fresh port instead of failing.
func TestStartRetriesEphemeralPortTakenOnTCP(t *testing.T) {
	calls, collisions := failListenTCP(t, 1)
	addr, _ := startTestServer(t, false)
	if *calls != 2+*collisions {
		t.Fatalf("listenTCP calls = %d, want %d (one refused, one retry, %d ports really taken)", *calls, 2+*collisions, *collisions)
	}
	for _, c := range []*dnsclient.Client{
		{Timeout: 2 * time.Second},
		{Timeout: 2 * time.Second, ForceTCP: true},
	} {
		resp, err := c.Query(addr, "www.zone.test.", dnswire.TypeA, nil)
		if err != nil {
			t.Fatalf("ForceTCP=%v: %v", c.ForceTCP, err)
		}
		if len(resp.Answers) != 1 {
			t.Fatalf("ForceTCP=%v: response: %v", c.ForceTCP, resp)
		}
	}
}

// TestStartBindRetryIsBounded: a caller that names its port gets the
// bind error at once, and a port 0 request gives up after
// ephemeralBindTries ports.
func TestStartBindRetryIsBounded(t *testing.T) {
	// A port number that was free a moment ago.
	probe, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	explicit := probe.LocalAddr().String()
	probe.Close()

	start := func(addr string) int {
		t.Helper()
		calls, _ := failListenTCP(t, 1<<30)
		_, err := New(authority.NewServer(authority.Config{})).Start(addr)
		if !errors.Is(err, syscall.EADDRINUSE) {
			t.Fatalf("Start(%s) error = %v, want EADDRINUSE", addr, err)
		}
		return *calls
	}
	// (0 if another process took the port on UDP meanwhile.)
	if n := start(explicit); n > 1 {
		t.Fatalf("explicit port: %d TCP bind attempts, want 1", n)
	}
	if n := start("127.0.0.1:0"); n != ephemeralBindTries {
		t.Fatalf("port 0: %d TCP bind attempts, want %d", n, ephemeralBindTries)
	}
}

// fromRecorder answers every query and hands the client address it was
// given to the test.
type fromRecorder struct{ from chan netip.Addr }

func (h fromRecorder) HandleDNS(from netip.Addr, q *dnswire.Message) *dnswire.Message {
	h.from <- from
	return dnswire.NewResponse(q)
}

// TestHandlerSeesClientAddress pins the address form a handler is given
// for a UDP client, which client identity and RRL prefixes are built on:
// a plain IPv4 address on an AF_INET listener, and on a dual-stack
// listener the address as the socket reports it — an IPv4 client stays
// 4-in-6, not unmapped — with the answer still finding its way back.
func TestHandlerSeesClientAddress(t *testing.T) {
	for _, tc := range []struct {
		listen, dial string // dial is the host the client reaches the server by
		want         netip.Addr
	}{
		{"127.0.0.1:0", "127.0.0.1", netip.MustParseAddr("127.0.0.1")},
		{"[::]:0", "127.0.0.1", netip.MustParseAddr("::ffff:127.0.0.1")},
		{"[::]:0", "::1", netip.MustParseAddr("::1")},
	} {
		t.Run(tc.listen+" from "+tc.dial, func(t *testing.T) {
			h := fromRecorder{from: make(chan netip.Addr, 1)}
			srv := New(h)
			bound, err := srv.Start(tc.listen)
			if err != nil {
				if tc.listen == "[::]:0" {
					t.Skipf("no dual-stack listener on this host: %v", err)
				}
				t.Fatal(err)
			}
			defer srv.Close()
			server := netip.AddrPortFrom(netip.MustParseAddr(tc.dial), bound.Port()).String()
			c := &dnsclient.Client{Timeout: 2 * time.Second, Retries: dnsclient.NoRetries}
			resp, err := c.Query(server, "who.zone.test.", dnswire.TypeA, nil)
			if err != nil {
				if tc.listen == "[::]:0" {
					t.Skipf("%s does not reach a dual-stack listener on this host: %v", tc.dial, err)
				}
				t.Fatal(err)
			}
			if !resp.Response {
				t.Fatalf("response: %v", resp)
			}
			if got := <-h.from; got != tc.want {
				t.Fatalf("handler saw client %v (4-in-6 %v), want %v", got, got.Is4In6(), tc.want)
			}
		})
	}
}

// TestServedQueryIsBorrowed makes the Handler contract concrete: on a
// one-worker server two queries arrive in the same *Message, the second
// decoded over the first. What the handler copied out of the first
// query is intact; the option payload it kept without copying now holds
// the second query's bytes. The same holds for a FillHandler that
// declines each query on the read loop: either way the read loop hands
// the worker the Message it decoded the query into, and gets it back for
// the next one.
func TestServedQueryIsBorrowed(t *testing.T) {
	type kept struct {
		msg      *dnswire.Message
		question dnswire.Question // a value: its Name is an immutable string
		ecs      []byte           // copied out of the option
		ecsAlias []byte           // kept as the Message holds it
	}
	seen := make(chan kept, 2)
	borrow := handlerFunc(func(_ netip.Addr, q *dnswire.Message) *dnswire.Message {
		opt, _ := q.EDNS.Option(dnswire.OptionCodeECS)
		seen <- kept{q, q.Question(), append([]byte(nil), opt.Data...), opt.Data}
		return dnswire.NewResponse(q)
	})
	for _, tc := range []struct {
		name    string
		handler Handler
	}{
		{"worker", borrow},
		{"declined", declining{borrow}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(tc.handler)
			srv.MaxInflight = 1
			bound, err := srv.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			conn := udpDial(t, bound.String())

			queries := []struct {
				name   dnswire.Name
				subnet ecsopt.ClientSubnet
			}{
				{"first.borrow.test.", ecsopt.MustNew(netip.MustParseAddr("198.51.100.0"), 24)},
				{"second.borrow.test.", ecsopt.MustNew(netip.MustParseAddr("203.0.113.0"), 24)},
			}
			var got []kept
			for i, q := range queries {
				m := dnswire.NewQuery(uint16(i+1), q.name, dnswire.TypeA)
				m.EDNS = dnswire.NewEDNS()
				ecsopt.Attach(m, q.subnet)
				wire, err := m.Pack()
				if err != nil {
					t.Fatal(err)
				}
				conn.Write(wire)
				if resp, ok := udpRead(t, conn, time.Second); !ok || resp.ID != uint16(i+1) {
					t.Fatalf("query %d: reply %v, %v", i+1, resp, ok)
				}
				got = append(got, <-seen)
			}

			first, second := got[0], got[1]
			if first.msg != second.msg {
				t.Fatal("the one worker handed its two queries over in different Messages")
			}
			if first.question.Name != queries[0].name {
				t.Fatalf("the copied question reads %s, want %s", first.question.Name, queries[0].name)
			}
			if want := queries[0].subnet.Encode().Data; !bytes.Equal(first.ecs, want) {
				t.Fatalf("the copied ECS payload reads %x, want %x", first.ecs, want)
			}
			// The borrowed views moved on to the second query.
			if name := first.msg.Question().Name; name != queries[1].name {
				t.Fatalf("the kept *Message still reads %s, want %s", name, queries[1].name)
			}
			if want := queries[1].subnet.Encode().Data; !bytes.Equal(first.ecsAlias, want) {
				t.Fatalf("the uncopied ECS payload reads %x, want the second query's %x", first.ecsAlias, want)
			}
		})
	}
}

// TestUnpackableReplyNotSent: a handler reply that does not pack (a
// record without data) sends nothing. Over UDP the next reply on the
// socket is the next query's; over TCP the connection is closed.
func TestUnpackableReplyNotSent(t *testing.T) {
	inner := answering()
	srv := New(handlerFunc(func(from netip.Addr, q *dnswire.Message) *dnswire.Message {
		resp := inner(from, q)
		if q.Questions[0].Name == "nil.zone.test." {
			resp.Answers[0].Data = nil
		}
		return resp
	}))
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn := udpDial(t, bound.String())
	conn.Write(packQuery(t, 1, "nil.zone.test."))
	waitStat(t, srv, "unpackable reply handled", func(st ServerStats) bool { return st.Answered == 1 })
	conn.Write(packQuery(t, 2, "www.zone.test."))
	if resp, ok := udpRead(t, conn, time.Second); !ok || resp.ID != 2 || len(resp.Answers) != 1 {
		t.Fatalf("first UDP reply = %v, %v; want the answer to query 2", resp, ok)
	}

	tc, err := net.Dial("tcp", bound.String())
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	q := packQuery(t, 3, "nil.zone.test.")
	if _, err := tc.Write(append([]byte{0, byte(len(q))}, q...)); err != nil {
		t.Fatal(err)
	}
	tc.SetReadDeadline(time.Now().Add(time.Second))
	if n, err := tc.Read(make([]byte, 512)); err == nil {
		t.Fatalf("TCP connection sent %d bytes for a reply that does not pack", n)
	}
}
