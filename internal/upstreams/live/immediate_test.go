package live

import (
	"io"
	"net"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"ecsdns/internal/dnsserver"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
	"ecsdns/internal/netem"
	"ecsdns/internal/resolver"
)

// A resolver behind a dnsserver splits each query by what it waits on: a
// hit is answered by the read loop that read it (ServeDNS without
// mayWait), a miss is resolved by a worker (ServeDNS with it). These
// tests hold that split to its two promises: a miss never delays a hit,
// and each query is counted once, by whichever side answers it.

// heldZone is the zone heldUpstream answers.
const heldZone = "held.test."

// heldUpstream answers every A query with 192.0.2.1, without ECS, for
// ttl seconds (300 when ttl is 0). It records whether each query carried
// ECS, and holds names under "slow." until hold is closed.
type heldUpstream struct {
	hold chan struct{}
	ttl  uint32

	mu     sync.Mutex
	hasECS []bool
}

func (u *heldUpstream) Exchange(_, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	_, hasECS, _ := ecsopt.FromMessage(q)
	u.mu.Lock()
	u.hasECS = append(u.hasECS, hasECS)
	u.mu.Unlock()
	if strings.HasPrefix(string(q.Question().Name), "slow.") {
		<-u.hold
	}
	ttl := u.ttl
	if ttl == 0 {
		ttl = 300
	}
	resp := dnswire.NewResponse(q)
	resp.Answers = append(resp.Answers, dnswire.RR{
		Name: q.Question().Name, Class: dnswire.ClassINET, TTL: ttl,
		Data: &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.1")},
	})
	return resp, 0, nil
}

// sent returns, per query the upstream has received, whether it carried
// ECS.
func (u *heldUpstream) sent() []bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return append([]bool(nil), u.hasECS...)
}

// serveHeld serves a resolver with profile p over up on loopback, on
// clk's time, with the server's default read loop and workers, and
// returns the resolver, the server and its address.
func serveHeld(t *testing.T, p resolver.Profile, up *heldUpstream, clk *netem.Clock) (*resolver.Resolver, *dnsserver.Server, string) {
	t.Helper()
	dir := resolver.NewDirectory()
	dir.Add(heldZone, netip.MustParseAddr("203.0.113.53"))
	res := resolver.New(resolver.Config{
		Addr:      netip.MustParseAddr("127.0.0.1"),
		Transport: up,
		Now:       clk.Now,
		Directory: dir,
		Profile:   p,
		Seed:      1,
	})
	srv := dnsserver.New(res)
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return res, srv, bound.String()
}

// heldClient opens one client socket to addr.
func heldClient(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// ask sends an A query for label under heldZone, with an empty OPT, and
// reports whether its answer arrived within timeout.
func ask(t *testing.T, conn net.Conn, id uint16, label string, timeout time.Duration) bool {
	t.Helper()
	send(t, conn, id, label)
	conn.SetReadDeadline(time.Now().Add(timeout))
	buf := make([]byte, 2048)
	n, err := conn.Read(buf)
	if err != nil {
		return false
	}
	resp, err := dnswire.Unpack(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != id || resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 {
		t.Fatalf("query %d for %s: reply %v", id, label, resp)
	}
	return true
}

func send(t *testing.T, conn net.Conn, id uint16, label string) {
	t.Helper()
	if _, err := conn.Write(heldQuery(t, id, label)); err != nil {
		t.Fatal(err)
	}
}

// heldQuery packs an A query for label under heldZone, with an empty
// OPT.
func heldQuery(t *testing.T, id uint16, label string) []byte {
	t.Helper()
	q := dnswire.NewQuery(id, dnswire.Name(label+"."+heldZone), dnswire.TypeA)
	q.EDNS = dnswire.NewEDNS()
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// askTCP sends the query ask does over a TCP connection of its own, and
// requires its answer.
func askTCP(t *testing.T, addr string, id uint16, label string) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	wire := heldQuery(t, id, label)
	if _, err := conn.Write(append([]byte{byte(len(wire) >> 8), byte(len(wire))}, wire...)); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 2)
	if _, err := io.ReadFull(conn, frame); err != nil {
		t.Fatal(err)
	}
	frame = make([]byte, int(frame[0])<<8|int(frame[1]))
	if _, err := io.ReadFull(conn, frame); err != nil {
		t.Fatal(err)
	}
	if resp, err := dnswire.Unpack(frame); err != nil || resp.ID != id || len(resp.Answers) != 1 {
		t.Fatalf("TCP query %d for %s: reply %v, %v", id, label, resp, err)
	}
}

// TestMissHeldUpstreamNeverStallsHits holds misses upstream and requires
// a cached name to be answered meanwhile. Were the read loop to resolve
// a miss itself, it would be waiting upstream and the hits would sit
// unread.
func TestMissHeldUpstreamNeverStallsHits(t *testing.T) {
	up := &heldUpstream{hold: make(chan struct{})}
	_, _, addr := serveHeld(t, resolver.GoogleLikeProfile(), up, netem.NewClock(netem.SimStart))
	var release sync.Once
	// Registered after the server's Close, so it runs before it: Close
	// waits for the workers the held misses occupy.
	t.Cleanup(func() { release.Do(func() { close(up.hold) }) })

	client := heldClient(t, addr)
	if !ask(t, client, 1, "hit", 2*time.Second) {
		t.Fatal("priming the cache: no answer")
	}
	const misses = 4
	held := make([]net.Conn, misses)
	for i := range held {
		held[i] = heldClient(t, addr)
		send(t, held[i], uint16(100+i), "slow.m"+string(rune('a'+i)))
	}
	for deadline := time.Now().Add(2 * time.Second); len(up.sent()) < 1+misses; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d misses reached the upstream", len(up.sent())-1, misses)
		}
	}

	for i := uint16(0); i < 8; i++ {
		if !ask(t, client, 10+i, "hit", time.Second) {
			t.Fatalf("hit %d went unanswered while %d misses were held upstream", i, misses)
		}
	}
	release.Do(func() { close(up.hold) })
	buf := make([]byte, 2048)
	for i, conn := range held {
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(buf); err != nil {
			t.Fatalf("held miss %d got no answer after the release: %v", i, err)
		}
	}
}

// TestEachQueryCountedOnce sends a stream of misses and hits through a
// ProbeOnMiss resolver behind a dnsserver and requires every counter to
// count each query exactly once: on the read loop for a hit, on a worker
// for a miss, and never on the read loop's declined attempt at a miss.
// The last-seen bookkeeping shows through the upstream: a name's first
// query is a miss and carries ECS, which it would not had the declined
// attempt already marked the name as just seen.
func TestEachQueryCountedOnce(t *testing.T) {
	p := resolver.GoogleLikeProfile()
	p.Probing = resolver.ProbeOnMiss
	up := &heldUpstream{}
	res, srv, addr := serveHeld(t, p, up, netem.NewClock(netem.SimStart))

	stream := []string{"a", "b", "c", "a", "b", "c", "a", "b", "d", "a", "d"}
	names := map[string]bool{}
	conn := heldClient(t, addr)
	for i, label := range stream {
		names[label] = true
		if !ask(t, conn, uint16(i), label, 2*time.Second) {
			t.Fatalf("query %d (%s) got no answer", i, label)
		}
	}
	queries, misses := int64(len(stream)), int64(len(names))
	hits := queries - misses

	if client, upstream := res.Counters(); client != queries || upstream != misses {
		t.Errorf("resolver counted %d client and %d upstream queries, want %d and %d", client, upstream, queries, misses)
	}
	if st := res.Cache().Stats(); st.Lookups != queries || st.Hits != hits || st.Misses != misses {
		t.Errorf("cache counted %d lookups, %d hits, %d misses, want %d, %d, %d", st.Lookups, st.Hits, st.Misses, queries, hits, misses)
	}
	st := srv.Stats()
	if st.Received != queries || st.Answered != queries || st.Immediate != hits || st.Check() != nil {
		t.Errorf("server: %s, want %d received and answered, %d of them immediate (%v)", st, queries, hits, st.Check())
	}
	for i, ecs := range up.sent() {
		if !ecs {
			t.Errorf("upstream query %d, a name's first, went without ECS: the name was marked seen before it was resolved", i)
		}
	}
}

// TestProbeOnMissKeepsNoBorrowedName: under ProbeOnMiss the resolver
// remembers when it last saw each name, and a hit answered on the read
// loop, whose name is a view of the loop's Message, must leave nothing
// in that memory pointing into the Message. aaaa is resolved and then
// hit on the read loop; bbbb, a name of the same length, is then decoded
// into the same Message. Once aaaa's entry has expired, 40 s later, aaaa
// is asked again over TCP, whose decode leaves the loop's Message alone.
// It was seen 40 s before, so its upstream query must go without ECS, as
// a recently seen name's does; a resolver that stored the hit's name as
// it was lent has forgotten aaaa and sends ECS.
func TestProbeOnMissKeepsNoBorrowedName(t *testing.T) {
	p := resolver.GoogleLikeProfile()
	p.Probing = resolver.ProbeOnMiss
	up := &heldUpstream{ttl: 30}
	clk := netem.NewClock(netem.SimStart)
	_, srv, addr := serveHeld(t, p, up, clk)
	conn := heldClient(t, addr)
	for i, label := range []string{"aaaa", "aaaa", "bbbb"} {
		if !ask(t, conn, uint16(i), label, 2*time.Second) {
			t.Fatalf("query %d (%s) got no answer", i, label)
		}
	}
	if st := srv.Stats(); st.Immediate != 1 {
		t.Fatalf("want aaaa's second query, and only it, answered on the read loop: %s", st)
	}
	clk.Advance(40 * time.Second)
	askTCP(t, addr, 3, "aaaa")
	if sent := up.sent(); len(sent) != 3 || !sent[0] || !sent[1] || sent[2] {
		t.Fatalf("upstream queries carried ECS %v, want [true true false]: the third, aaaa's within the minute, went as a new name's", sent)
	}
}
