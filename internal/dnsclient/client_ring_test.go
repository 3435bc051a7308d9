package dnsclient

import (
	"net"
	"net/netip"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
)

// The tests below pin the contract of Client's socket ring, one clause
// each. None sleeps: responders decide what is in a socket's queue and
// when, and the age test moves the clock instead of waiting.
//
// A socket is identified by the dial that made it (Stats().Dialed), not
// by its port alone: the kernel may hand a new socket the port its
// predecessor just closed (about once in 28 000 dials), so "a different
// port" is only ever asserted loosely.

// serveUDP is startEchoResponder for the tests that script the upstream:
// it runs handle, on one goroutine, for every datagram that arrives on a
// loopback socket bound to addr, until the returned stop (also a test
// cleanup) has closed the socket and joined the goroutine.
func serveUDP(t *testing.T, addr string, handle func(pc *net.UDPConn, pkt []byte, src netip.AddrPort)) (netip.AddrPort, func()) {
	t.Helper()
	pc, err := net.ListenUDP("udp4", net.UDPAddrFromAddrPort(netip.MustParseAddrPort(addr)))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b := make([]byte, 2048)
		for {
			n, src, err := pc.ReadFromUDPAddrPort(b)
			if err != nil {
				return
			}
			if n >= 12 {
				handle(pc, b[:n], src)
			}
		}
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			pc.Close()
			wg.Wait()
		})
	}
	t.Cleanup(stop)
	return pc.LocalAddr().(*net.UDPAddr).AddrPort(), stop
}

// echo answers a query with itself, QR set: ID and question match, so it
// validates. rcode marks the reply (0 for a genuine one).
func echo(pc *net.UDPConn, pkt []byte, src netip.AddrPort, rcode byte) {
	out := append([]byte(nil), pkt...)
	out[2] |= 0x80
	out[3] = out[3]&0xf0 | rcode
	pc.WriteToUDPAddrPort(out, src)
}

func ringQuery(id uint16, name string) *dnswire.Message {
	q := allocGateQuery(name)
	q.ID = id
	return q
}

// checkAnswer fails unless resp is the genuine answer to q.
func checkAnswer(t *testing.T, q, resp *dnswire.Message) {
	t.Helper()
	if resp.ID != q.ID || resp.Question() != q.Question() || resp.RCode != dnswire.RCodeNoError {
		t.Fatalf("query %d %s answered by %d %s rcode %s", q.ID, q.Question().Name, resp.ID, resp.Question().Name, resp.RCode)
	}
}

// TestClientRingRotation pins the use limit: sequential exchanges ride
// one socket for exactly ringUses queries, then a freshly dialed one, so
// no kernel-chosen port carries more than ringUses queries.
func TestClientRingRotation(t *testing.T) {
	var port atomic.Uint32 // source port of the last query
	server := startEchoResponder(t, func(src netip.AddrPort) { port.Store(uint32(src.Port())) })
	c := &Client{Timeout: 2 * time.Second}
	defer c.Close()
	type socket struct {
		dial uint64
		port uint16
	}
	uses := make(map[socket]int)
	ports := make(map[uint16]bool)
	var last socket
	for i := 0; i < 4*ringUses; i++ {
		q := ringQuery(uint16(i), "rotate.ring.test.")
		resp, err := c.ExchangeUDP(server.String(), q)
		if err != nil {
			t.Fatal(err)
		}
		checkAnswer(t, q, resp)
		s := socket{c.Stats().Dialed, uint16(port.Load())}
		if i > 0 && s.dial == last.dial && s.port != last.port {
			t.Fatalf("exchange %d left from port %d, the one before from %d, with no dial between", i, s.port, last.port)
		}
		uses[s]++
		ports[s.port] = true
		last = s
	}
	for s, n := range uses {
		if n > ringUses {
			t.Errorf("socket %d (port %d) carried %d exchanges, want at most %d", s.dial, s.port, n, ringUses)
		}
	}
	if len(uses) != 4 || len(ports) < 3 {
		t.Errorf("%d exchanges used %d sockets on %d ports, want 4 on 4 (3 if the kernel repeated one)", 4*ringUses, len(uses), len(ports))
	}
	st := c.Stats()
	if st.Dialed != 4 || st.Dialed+st.Reused != 4*ringUses || st.Retired != 4 || st.Idle != 0 || st.Check() != nil {
		t.Errorf("stats %+v, want 4 dialed, %d reused, 4 retired, none idle", st, 4*ringUses-4)
	}
}

// TestClientParkedSocketFailsFast pins that a parked socket is still a
// connected one: when its upstream dies the next exchange on it gets the
// ICMP error at once, the socket is not parked again, and an upstream
// back on the same port is reached by the exchange after that.
func TestClientParkedSocketFailsFast(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("relies on Linux delivering ICMP errors to connected UDP sockets")
	}
	answer := func(pc *net.UDPConn, pkt []byte, src netip.AddrPort) { echo(pc, pkt, src, 0) }
	server, stop := serveUDP(t, "127.0.0.1:0", answer)
	c := &Client{Timeout: 2 * time.Second}
	defer c.Close()
	q := ringQuery(1, "dead.ring.test.")
	if _, err := c.ExchangeUDP(server.String(), q); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Idle != 1 {
		t.Fatalf("stats %+v after one exchange, want its socket parked", st)
	}
	stop()
	start := time.Now()
	_, err := c.ExchangeUDP(server.String(), q)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("closed port answered")
	}
	if elapsed >= c.Timeout/4 {
		t.Fatalf("ExchangeUDP on a parked socket to a closed port took %v (%v), want under %v", elapsed, err, c.Timeout/4)
	}
	if st := c.Stats(); st.Reused != 1 || st.Retired != 1 || st.Idle != 0 || st.Check() != nil {
		t.Fatalf("stats %+v, want the parked socket drawn once, then retired, not parked again", st)
	}
	serveUDP(t, server.String(), answer)
	resp, err := c.ExchangeUDP(server.String(), q)
	if err != nil {
		t.Fatalf("upstream back on %s: %v", server, err)
	}
	checkAnswer(t, q, resp)
}

// TestClientStaleDatagramRetiresSocket pins the one-datagram rule for a
// reused socket. Whatever is first in its queue after idle time — a
// duplicate of an earlier answer, or a spray of forged ones — costs the
// socket its life, and the exchange is answered on a fresh one.
func TestClientStaleDatagramRetiresSocket(t *testing.T) {
	const forged = byte(dnswire.RCodeRefused)
	var (
		mu      sync.Mutex
		twice   = true
		pc      *net.UDPConn
		lastSrc netip.AddrPort
	)
	server, _ := serveUDP(t, "127.0.0.1:0", func(conn *net.UDPConn, pkt []byte, src netip.AddrPort) {
		mu.Lock()
		pc, lastSrc = conn, src
		dup := twice
		mu.Unlock()
		echo(conn, pkt, src, 0)
		if dup {
			echo(conn, pkt, src, 0)
		}
	})
	c := &Client{Timeout: 2 * time.Second}
	defer c.Close()
	exchange := func(id uint16) {
		t.Helper()
		q := ringQuery(id, "q"+itoa(int(id))+".stale.ring.test.")
		resp, err := c.ExchangeUDP(server.String(), q)
		if err != nil {
			t.Fatal(err)
		}
		checkAnswer(t, q, resp)
	}

	// Every answer arrives twice: the duplicate waits in the parked
	// socket's queue and is the first thing the next exchange reads.
	ports := make(map[uint16]bool)
	for id := uint16(1); id <= 6; id++ {
		exchange(id)
		mu.Lock()
		ports[lastSrc.Port()] = true
		mu.Unlock()
		want := ClientStats{Dialed: uint64(id), Reused: uint64(id - 1), Retired: uint64(id - 1), Idle: 1}
		if st := c.Stats(); st != want {
			t.Fatalf("after exchange %d: stats %+v, want %+v (the socket that met the duplicate retired)", id, st, want)
		}
	}
	if len(ports) < 2 {
		t.Fatalf("6 exchanges, 5 sockets retired, and one source port %v throughout", ports)
	}

	// Single answers from here. The first exchange still meets the last
	// duplicate; the one after it rides a clean parked socket.
	mu.Lock()
	twice = false
	mu.Unlock()
	exchange(7)
	exchange(8)
	if st := c.Stats(); st.Dialed != 7 || st.Reused != 7 || st.Retired != 6 || st.Check() != nil {
		t.Fatalf("stats %+v, want exchange 8 on the socket exchange 7 dialed", st)
	}

	// While that socket is parked, someone who knows the next question
	// sprays it from the upstream's address: a wrong ID first, then the
	// right one. On a fresh socket the first is skipped; on a reused one
	// it ends the socket, so the second is never read.
	q := ringQuery(9, "q9.stale.ring.test.")
	wrong, right := ringQuery(10, "q9.stale.ring.test."), q
	mu.Lock()
	upstream, parked := pc, lastSrc
	mu.Unlock()
	for _, m := range []*dnswire.Message{wrong, right} {
		pkt, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		echo(upstream, pkt, parked, forged)
	}
	resp, err := c.ExchangeUDP(server.String(), q)
	if err != nil {
		t.Fatal(err)
	}
	checkAnswer(t, q, resp)
	if st := c.Stats(); st.Dialed != 8 || st.Retired != 7 || st.Check() != nil {
		t.Fatalf("stats %+v, want the sprayed socket retired and one more dialed", st)
	}
}

// holdingResponder answers nothing until width queries are in flight,
// then all of them, and fails the test if two of them ever share a
// source port: each of width concurrent exchanges must own its socket.
func holdingResponder(t *testing.T, width int) netip.AddrPort {
	held := make(map[netip.AddrPort][]byte, width)
	server, _ := serveUDP(t, "127.0.0.1:0", func(pc *net.UDPConn, pkt []byte, src netip.AddrPort) {
		if _, busy := held[src]; busy {
			t.Errorf("two queries in flight from %s", src)
		}
		held[src] = append([]byte(nil), pkt...)
		if len(held) < width {
			return
		}
		for src, pkt := range held {
			echo(pc, pkt, src, 0)
		}
		clear(held)
	})
	return server
}

// TestClientRingExclusive pins that a socket carries one exchange at a
// time: there is no demultiplexer, so two exchanges on one socket would
// read each other's answers.
func TestClientRingExclusive(t *testing.T) {
	const goroutines, rounds = 8, 50
	server := holdingResponder(t, goroutines).String()
	c := &Client{Timeout: 5 * time.Second}
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				q := ringQuery(uint16(g*rounds+i), "g"+itoa(g)+".exclusive.ring.test.")
				resp, err := c.ExchangeUDP(server, q)
				if err != nil {
					t.Error(err)
					return
				}
				if resp.ID != q.ID || resp.Question() != q.Question() {
					t.Errorf("query %d %s answered by %d %s", q.ID, q.Question().Name, resp.ID, resp.Question().Name)
				}
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Dialed+st.Reused != goroutines*rounds || st.Reused == 0 || st.Check() != nil {
		t.Fatalf("stats %+v, want %d exchanges, some of them on reused sockets (%v)", st, goroutines*rounds, st.Check())
	}
}

// TestClientRingAgeLimit pins the age limit: a parked socket is reused
// up to ringAge after it was dialed and closed, not used, after that.
func TestClientRingAgeLimit(t *testing.T) {
	var offset time.Duration
	timeNow = func() time.Time { return time.Now().Add(offset) }
	t.Cleanup(func() { timeNow = time.Now })
	server := startEchoResponder(t, nil)
	c := &Client{Timeout: 2 * time.Second}
	defer c.Close()
	for _, step := range []struct {
		advance time.Duration
		want    ClientStats
	}{
		{0, ClientStats{Dialed: 1, Idle: 1}},
		{ringAge / 2, ClientStats{Dialed: 1, Reused: 1, Idle: 1}},
		{ringAge/2 + time.Millisecond, ClientStats{Dialed: 2, Reused: 1, Retired: 1, Idle: 1}},
	} {
		offset += step.advance
		q := ringQuery(7, "age.ring.test.")
		resp, err := c.ExchangeUDP(server.String(), q)
		if err != nil {
			t.Fatal(err)
		}
		checkAnswer(t, q, resp)
		if st := c.Stats(); st != step.want {
			t.Fatalf("socket age %v: stats %+v, want %+v", offset, st, step.want)
		}
	}
}

// openFDs counts the process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(fds)
}

// TestClientRingBoundsAndClose pins the per-server bound and Close: a
// burst far wider than the ring leaves ringIdle sockets parked, Close
// leaves none open, and the Client dials again afterwards.
func TestClientRingBoundsAndClose(t *testing.T) {
	const burst = 64
	server := holdingResponder(t, burst).String()
	c := &Client{Timeout: 5 * time.Second}
	before := 0
	if runtime.GOOS == "linux" {
		before = openFDs(t)
	}
	var wg sync.WaitGroup
	for g := 0; g < burst; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.ExchangeUDP(server, ringQuery(uint16(g), "burst.ring.test.")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if st, want := c.Stats(), (ClientStats{Dialed: burst, Retired: burst - ringIdle, Idle: ringIdle}); st != want {
		t.Fatalf("after a %d-wide burst: stats %+v, want %+v", burst, st, want)
	}
	c.Close()
	if st, want := c.Stats(), (ClientStats{Dialed: burst, Retired: burst}); st != want {
		t.Fatalf("after Close: stats %+v, want %+v", st, want)
	}
	if runtime.GOOS == "linux" {
		if after := openFDs(t); after > before {
			t.Fatalf("%d descriptors open after Close, %d before the burst", after, before)
		}
	}
}

// countingConn is a net.Conn of which only Close may be called.
type countingConn struct {
	net.Conn
	closed *int
}

func (c countingConn) Close() error {
	*c.closed++
	return nil
}

// TestClientRingTotalBound pins the bound that holds however many
// servers a Client is pointed at: the ring never parks more than
// ringIdleMax sockets, and at the bound a newly parked one displaces an
// old one instead of being turned away.
func TestClientRingTotalBound(t *testing.T) {
	c := &Client{}
	closed := 0
	const servers = ringIdleMax + 100
	name := func(i int) string { return "ns" + itoa(i) + ".bound.ring.test:53" }
	now := time.Now()
	for i := 0; i < servers; i++ {
		c.park(ringSock{conn: countingConn{closed: &closed}, server: name(i), born: now})
	}
	if st := c.Stats(); st.Idle != ringIdleMax || st.Retired != servers-ringIdleMax || closed != servers-ringIdleMax {
		t.Fatalf("%d servers parked one socket each: stats %+v, %d closed; want %d idle, %d closed", servers, st, closed, ringIdleMax, servers-ringIdleMax)
	}
	last := name(servers - 1)
	if _, ok := c.draw(last, now); !ok {
		t.Fatalf("the socket parked last, for %s, was the one turned away", last)
	}
	c.Close()
	if st := c.Stats(); st.Idle != 0 || closed != servers-1 {
		t.Fatalf("after Close: stats %+v, %d closed, want none idle and %d closed", st, closed, servers-1)
	}
}
