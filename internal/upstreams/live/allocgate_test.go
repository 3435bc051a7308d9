package live

import (
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnsserver"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
	"ecsdns/internal/resolver"
)

// TestAllocGateServedMiss counts what one cache miss allocates across
// the whole served chain in one process: a dnsserver in front of a
// resolver, whose pool (NewPool, as cmd/recursor builds it) asks a
// wildcard authority behind a dnsserver of its own. Every query asks a
// fresh name, so each is a miss that goes upstream; the client is a raw
// socket writing queries packed before the run and reading replies into
// a fixed buffer, so what is counted is the chain's. It reads 8: the
// name, new on each leg, decoded by each server's read loop; the record
// the cache keeps, copied out of the pooled answer with its payload; and
// four objects of the cache's own for a name it has not held (record
// set, record, the name's list and its place). The upstream query, the
// upstream answer and the client's reply are filled in, in memory a
// worker or a pooled resolution owns; when each was allocated a miss
// cost 31.
// testing.AllocsPerRun truncates the average, so a pool refilled after
// a collection or a socket the ring redials does not move the count,
// and one more object per miss does.
func TestAllocGateServedMiss(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const zone = "miss.test."
	auth := authority.NewServer(authority.Config{ECSEnabled: true, Scope: authority.ScopeSourceMinus(4)})
	z := authority.NewZone(zone, 300)
	z.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.53")})
	auth.AddZone(z)
	authAddr := serveGate(t, auth)

	pool, upstream, err := NewPool(authAddr.String(), false, true, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(upstream.Close)
	dir := resolver.NewDirectory()
	dir.Add(zone, netip.MustParseAddr("192.0.2.1"))
	dir.Add(dnswire.Root, netip.MustParseAddr("192.0.2.1"))
	res := resolver.New(resolver.Config{
		Addr:         netip.MustParseAddr("127.0.0.1"),
		Pool:         pool,
		Now:          time.Now,
		Directory:    dir,
		Profile:      resolver.CompliantProfile(),
		Seed:         1,
		CacheEntries: 4096,
		CacheShards:  8,
	})
	front := serveGate(t, res)

	const warm, runs = 400, 400
	wires := make([][]byte, warm+runs+1) // AllocsPerRun calls once more to warm up
	for i := range wires {
		q := dnswire.NewQuery(uint16(i), dnswire.Name(fmt.Sprintf("m%d.%s", i, zone)), dnswire.TypeA)
		ecsopt.Attach(q, ecsopt.MustNew(netip.AddrFrom4([4]byte{10, byte(i % 16), 7, 0}), 24))
		if wires[i], err = q.Pack(); err != nil {
			t.Fatal(err)
		}
	}
	conn, err := net.Dial("udp", front.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 4096)
	next := 0
	miss := func() {
		wire := wires[next]
		next++
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		if id, _ := dnswire.PeekID(buf[:n]); id != uint16(next-1) || n < 12 || buf[3]&0xF != 0 {
			t.Fatalf("query %d: reply of %d bytes, ID %d, rcode %d", next-1, n, id, buf[3]&0xF)
		}
	}
	for i := 0; i < warm; i++ {
		miss()
	}
	runtime.GC()
	allocs := testing.AllocsPerRun(runs, miss)
	if c, u := res.Counters(); u != c {
		t.Fatalf("%d client queries went upstream %d times: not every query missed", c, u)
	}
	t.Logf("a served miss allocates %.2f objects", allocs)
	const bound = 8
	if allocs > bound {
		t.Fatalf("a served miss allocates %.2f objects across the chain, want <= %d", allocs, bound)
	}
}

// serveGate serves h on loopback with the server's defaults, as the
// daemons do.
func serveGate(t *testing.T, h dnsserver.Handler) netip.AddrPort {
	t.Helper()
	srv := dnsserver.New(h)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}
