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
// wildcard authority behind a dnsserver of its own. Every query is a
// miss that goes upstream; the client is a raw socket writing queries
// packed before the run and reading replies into a fixed buffer, so what
// is counted is the chain's. The upstream query, the upstream answer and
// the client's reply are filled in, in memory a worker or a pooled
// resolution owns; when each was allocated a miss cost 31.
// testing.AllocsPerRun truncates the average, so a pool refilled after
// a collection or a socket the ring redials does not move the count,
// and one more object per miss does.
func TestAllocGateServedMiss(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, row := range []struct {
		name  string
		scope authority.ScopeFunc
		// query is miss i's name and client subnet address.
		query func(i int) (dnswire.Name, netip.Addr)
		bound float64
	}{
		// Every query asks a fresh name. It reads 7: the name, new on
		// each leg and a view of a query Message on each, which only the
		// recursor's cache copies, when it files the new question; the
		// record the cache keeps, which Insert copies out of the pooled
		// answer with its payload; and four objects of the cache's own
		// for a name it has not held (record set, record, the name's
		// list and its place).
		{"fresh name", authority.ScopeSourceMinus(4), func(i int) (dnswire.Name, netip.Addr) {
			return dnswire.Name(fmt.Sprintf("m%d.%s", i, missZone)), netip.AddrFrom4([4]byte{10, byte(i % 16), 7, 0})
		}, 7},
		// One name asked from a new client /24 each time, answered alike
		// at scope 24: §7's blow-up. It reads 1, the resident record: the
		// answer is compared with the one its list neighbour holds and
		// shared, never copied (3 when the resolver copied every answer
		// before the cache looked).
		{"shared answer", authority.ScopeEcho(), func(i int) (dnswire.Name, netip.Addr) {
			return "www." + missZone, netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0})
		}, 1},
		// Eight names in turn, each from a new client /24, answered
		// alike at scope 24, as serve-scoped's prefill asks them. It
		// reads 1, the resident record, as one name does: no leg copies
		// a name the cache holds already (2 while the worker copied
		// every name that differed from its Message's last).
		{"eight names", authority.ScopeEcho(), func(i int) (dnswire.Name, netip.Addr) {
			return dnswire.Name(fmt.Sprintf("n%d.%s", i%8, missZone)), netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0})
		}, 1},
	} {
		t.Run(row.name, func(t *testing.T) {
			allocs := servedMisses(t, row.scope, row.query)
			t.Logf("a served miss allocates %.2f objects", allocs)
			if allocs > row.bound {
				t.Fatalf("a served miss allocates %.2f objects across the chain, want <= %.0f", allocs, row.bound)
			}
		})
	}
}

// missZone is the zone TestAllocGateServedMiss's authority serves.
const missZone = "miss.test."

// servedMisses builds the served chain over an authority answering at
// scope, sends queries the chain has not cached, miss i asking query(i),
// and returns the objects one allocates.
func servedMisses(t *testing.T, scope authority.ScopeFunc, query func(i int) (dnswire.Name, netip.Addr)) float64 {
	auth := authority.NewServer(authority.Config{ECSEnabled: true, Scope: scope})
	z := authority.NewZone(missZone, 300)
	z.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.53")})
	auth.AddZone(z)
	authAddr := serveGate(t, auth)

	res := pooledResolver(t, authAddr, missZone, resolver.Config{CacheEntries: 4096, CacheShards: 8})
	front := serveGate(t, res)

	const warm, runs = 400, 400
	wires := make([][]byte, warm+runs+1) // AllocsPerRun calls once more to warm up
	for i := range wires {
		name, client := query(i)
		q := dnswire.NewQuery(uint16(i), name, dnswire.TypeA)
		ecsopt.Attach(q, ecsopt.MustNew(client, 24))
		var err error
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
	return allocs
}

// TestAllocGateServedHit counts what a cache hit allocates through the
// served chain's front: a dnsserver whose read loop answers it from the
// resolver's cache. 64 names are cached first, then asked round robin,
// so each query's name differs from the one before it in the loop's
// Message. It reads 0: the loop decodes the name as a view of the
// Message (dnswire.UnpackBorrowedInto), and the lookup, the reply and
// the count only read it. A name decoded into a string of its own reads
// 1 here.
func TestAllocGateServedHit(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const zone = "hit.test."
	auth := authority.NewServer(authority.Config{ECSEnabled: true, Scope: authority.ScopeSourceMinus(4)})
	z := authority.NewZone(zone, 300)
	z.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.53")})
	auth.AddZone(z)
	res := pooledResolver(t, serveGate(t, auth), zone, resolver.Config{})
	front := serveGate(t, res)

	const names = 64
	wires := make([][]byte, names)
	for i := range wires {
		q := dnswire.NewQuery(uint16(i), dnswire.Name(fmt.Sprintf("h%d.%s", i, zone)), dnswire.TypeA)
		ecsopt.Attach(q, ecsopt.MustNew(netip.AddrFrom4([4]byte{10, 1, 7, 0}), 24))
		var err error
		if wires[i], err = q.Pack(); err != nil {
			t.Fatal(err)
		}
	}
	conn, err := net.Dial("udp", front.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(time.Minute))
	buf := make([]byte, 4096)
	next := 0
	ask := func() {
		i := next % names
		next++
		if _, err := conn.Write(wires[i]); err != nil {
			t.Fatal(err)
		}
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		if id, _ := dnswire.PeekID(buf[:n]); id != uint16(i) || n < 12 || buf[3]&0xF != 0 {
			t.Fatalf("query %d: reply of %d bytes, ID %d, rcode %d", i, n, id, buf[3]&0xF)
		}
	}
	for i := 0; i < 4*names; i++ { // the first round misses and fills the cache
		ask()
	}
	runtime.GC()
	allocs := testing.AllocsPerRun(8*names, ask)
	if c, u := res.Counters(); u != names || c != int64(next) {
		t.Fatalf("%d client queries went upstream %d times, want only the %d first", c, u, names)
	}
	t.Logf("a served hit allocates %.2f objects", allocs)
	if allocs > 0 {
		t.Fatalf("a served hit allocates %.2f objects, want 0", allocs)
	}
}

// pooledResolver builds the resolver cmd/recursor runs: cfg, given the
// compliant profile and a pool (NewPool) of the one upstream at
// authAddr, to which the directory sends zone and the root.
func pooledResolver(t *testing.T, authAddr netip.AddrPort, zone dnswire.Name, cfg resolver.Config) *resolver.Resolver {
	t.Helper()
	pool, upstream, err := NewPool(authAddr.String(), false, true, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(upstream.Close)
	cfg.Directory = resolver.NewDirectory()
	cfg.Directory.Add(zone, netip.MustParseAddr("192.0.2.1"))
	cfg.Directory.Add(dnswire.Root, netip.MustParseAddr("192.0.2.1"))
	cfg.Addr, cfg.Pool, cfg.Now = netip.MustParseAddr("127.0.0.1"), pool, time.Now
	cfg.Profile, cfg.Seed = resolver.CompliantProfile(), 1
	return resolver.New(cfg)
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
