//go:build ecsbench

package main

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"

	"ecsdns/bench/stub"
	"ecsdns/internal/authority"
	"ecsdns/internal/dnsclient"
	"ecsdns/internal/dnsserver"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecscache"
	"ecsdns/internal/ecsopt"
	"ecsdns/internal/resolver"
	"ecsdns/internal/scanner"
	"ecsdns/internal/upstreams"
)

// timeNS calls f in batches for about budget and returns the median
// nanoseconds per call over the batches. The batch size doubles until
// one batch takes a millisecond, so the clock reads are noise.
func timeNS(budget time.Duration, f func()) float64 {
	run := func(n int) time.Duration {
		start := stub.Now()
		for i := 0; i < n; i++ {
			f()
		}
		return stub.Now().Sub(start)
	}
	batch := 1
	for run(batch) < time.Millisecond && batch < 1<<22 {
		batch *= 2
	}
	var per []float64
	for deadline := stub.Now().Add(budget); len(per) < 5 || stub.Now().Before(deadline); {
		per = append(per, float64(run(batch).Nanoseconds())/float64(batch))
	}
	return stub.Median(per)
}

func allocs(f func()) float64 { return testing.AllocsPerRun(200, f) }

func must(err error) {
	if err != nil {
		panic(err)
	}
}

var (
	zone       = dnswire.MustParseName(stub.Zone)
	answerAddr = netip.AddrFrom4(stub.Answer)
	clientAddr = netip.MustParseAddr("127.0.0.1")
)

// ecsQuery is the stub's query as the codec sees it.
func ecsQuery(id uint16, name string, subnet int) *dnswire.Message {
	q := dnswire.NewQuery(id, dnswire.MustParseName(name), dnswire.TypeA)
	q.RecursionDesired = true
	q.EDNS = dnswire.NewEDNS()
	ecsopt.Attach(q, subnetOf(subnet))
	return q
}

func subnetOf(i int) ecsopt.ClientSubnet {
	return ecsopt.MustNew(netip.AddrFrom4([4]byte{20, byte(i >> 8), byte(i), 0}), 24)
}

// ecsAnswer is the A+ECS response an authority gives to q.
func ecsAnswer(q *dnswire.Message, scope int) *dnswire.Message {
	resp := dnswire.NewResponse(q)
	resp.Answers = []dnswire.RR{{Name: q.Question().Name, Class: dnswire.ClassINET, TTL: 3600, Data: &dnswire.ARData{Addr: answerAddr}}}
	resp.EDNS = dnswire.NewEDNS()
	if cs, ok, _ := ecsopt.FromMessage(q); ok {
		ecsopt.Attach(resp, cs.WithScope(scope))
	}
	return resp
}

// cannedTransport answers every upstream query in memory, so upstream
// time is excluded from the rows that sit above it.
type cannedTransport struct{}

func (cannedTransport) Exchange(_, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	return ecsAnswer(q, 24), 0, nil
}

func (t cannedTransport) ExchangeTCP(from, to netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	return t.Exchange(from, to, q)
}

// newResolver assembles a resolver the way cmd/recursor does.
func newResolver(cacheEntries int, transport resolver.Transport, pool resolver.PoolTransport) *resolver.Resolver {
	placeholder := netip.MustParseAddr("192.0.2.1")
	dir := resolver.NewDirectory()
	dir.Add(zone, placeholder)
	dir.Add(dnswire.Root, placeholder)
	return resolver.New(resolver.Config{
		Addr:         clientAddr,
		Now:          stub.Now,
		Directory:    dir,
		Profile:      resolver.CompliantProfile(),
		Seed:         1,
		CacheEntries: cacheEntries,
		CacheShards:  8, // cmd/recursor's -cache-shards default
		Transport:    transport,
		Pool:         pool,
	})
}

// newAuthority assembles the wildcard authority the way cmd/authdns does.
func newAuthority(scope authority.ScopeFunc, ttl uint32) *authority.Server {
	srv := authority.NewServer(authority.Config{ECSEnabled: true, Scope: scope, Now: stub.Now})
	z := authority.NewZone(zone, ttl)
	z.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: answerAddr})
	z.MustAdd(dnswire.RR{Name: zone, Data: &dnswire.NSRData{Host: dnswire.MustParseName("ns1." + stub.Zone)}})
	srv.AddZone(z)
	return srv
}

// echoResponder is a raw loopback responder: it sets QR on whatever
// arrives and sends it back, so the client rows time the client alone.
func echoResponder() (addr string, stop func()) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	must(err)
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 4096)
		for {
			n, from, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return // closed
			}
			if n >= 12 {
				buf[2] |= 0x80
				_, _ = conn.WriteToUDPAddrPort(buf[:n], from) // a lost echo shows as the client's timeout
			}
		}
	}()
	return conn.LocalAddr().String(), func() { conn.Close(); <-done }
}

type handlerFunc func(netip.Addr, *dnswire.Message) *dnswire.Message

func (f handlerFunc) HandleDNS(from netip.Addr, q *dnswire.Message) *dnswire.Message {
	return f(from, q)
}

// micro times each module's exported functions from outside. budget is
// the time given to each timed function.
func micro(budget time.Duration) map[string]float64 {
	m := map[string]float64{}
	microCodec(m, budget)
	microCache(m, budget)
	microResolver(m, budget)
	microTransport(m, budget)
	microServer(m, budget)
	microScanner(m, budget)
	return m
}

// microCodec: the _ns rows are per message, the mean of the ECS query
// and the A+ECS response.
func microCodec(m map[string]float64, budget time.Duration) {
	query := ecsQuery(7, "n1-1."+stub.Zone, 5)
	msgs := []*dnswire.Message{query, ecsAnswer(query, 24)}
	var wires [][]byte
	for _, msg := range msgs {
		w, err := msg.Pack()
		must(err)
		wires = append(wires, w)
	}
	pack := func() {
		for _, msg := range msgs {
			_, err := msg.Pack()
			must(err)
		}
	}
	unpack := func() {
		for _, w := range wires {
			_, err := dnswire.Unpack(w)
			must(err)
		}
	}
	buf := make([]byte, 0, 512)
	var into dnswire.Message
	m["dnswire.pack_ns"] = timeNS(budget, pack) / 2
	m["dnswire.append_pack_ns"] = timeNS(budget, func() {
		for _, msg := range msgs {
			_, err := msg.AppendPack(buf[:0])
			must(err)
		}
	}) / 2
	m["dnswire.unpack_ns"] = timeNS(budget, unpack) / 2
	m["dnswire.unpack_into_ns"] = timeNS(budget, func() {
		for _, w := range wires {
			must(dnswire.UnpackInto(&into, w))
		}
	}) / 2
	m["dnswire.pack_allocs"] = allocs(pack) / 2
	m["dnswire.unpack_allocs"] = allocs(unpack) / 2

	cs := subnetOf(5).WithScope(24)
	opt := cs.Encode()
	m["ecsopt.encode_ns"] = timeNS(budget, func() { opt = cs.Encode() })
	m["ecsopt.decode_ns"] = timeNS(budget, func() {
		_, err := ecsopt.Decode(opt)
		must(err)
	})
}

// microCache times the cache cmd/recursor gets from resolver.New, in the
// three states the serve workloads put it in.
func microCache(m map[string]float64, budget time.Duration) {
	now := stub.Now()
	keys := make([]ecscache.Key, stub.HotNames)
	for i := range keys {
		keys[i] = ecscache.Key{Name: dnswire.MustParseName(fmt.Sprintf("n%d.%s", i, stub.Zone)), Type: dnswire.TypeA, Class: dnswire.ClassINET}
	}
	entry := func(subnet, scope int) ecscache.Entry {
		return ecscache.Entry{HasECS: true, Subnet: subnetOf(subnet).WithScope(scope), Expiry: now.Add(time.Hour), Stored: now}
	}
	addr := func(subnet int) netip.Addr { return subnetOf(subnet).Addr }
	n := 0

	hot := newResolver(0, cannedTransport{}, nil).Cache()
	for _, k := range keys {
		hot.Insert(k, entry(0, 0), now)
	}
	lookupHit := func() {
		n++
		if _, ok := hot.Lookup(keys[n%len(keys)], addr(n%stub.HotSubnets), now); !ok {
			panic("ecscache: unexpected miss on the one-entry-per-key cache")
		}
	}
	m["ecscache.lookup_hit_ns"] = timeNS(budget, lookupHit)
	m["ecscache.lookup_allocs"] = allocs(lookupHit)

	scoped := newResolver(0, cannedTransport{}, nil).Cache()
	for _, k := range keys[:stub.ScopedNames] {
		for s := 0; s < stub.ScopedSubnets; s++ {
			scoped.Insert(k, entry(s, 24), now)
		}
	}
	m["ecscache.lookup_scoped_ns"] = timeNS(budget, func() {
		n++
		// A stride coprime to the entry count visits every list position.
		if _, ok := scoped.Lookup(keys[n%stub.ScopedNames], addr(n*769%stub.ScopedSubnets), now); !ok {
			panic("ecscache: unexpected miss on the 2048-entries-per-key cache")
		}
	})

	// Inserts of fresh (key, subnet) pairs: into an unbounded cache that
	// is replaced before it grows large, and into one at capacity.
	var fresh *ecscache.Cache
	m["ecscache.insert_ns"] = timeNS(budget, func() {
		if n++; fresh == nil || n%20000 == 0 {
			fresh = newResolver(0, cannedTransport{}, nil).Cache()
		}
		fresh.Insert(keys[n%len(keys)], entry(n%20000, 24), now)
	})
	full := newResolver(stub.MissCacheEntries, cannedTransport{}, nil).Cache()
	insertEvict := func() {
		n++
		full.Insert(keys[n%len(keys)], entry(n%(1<<16), 24), now)
	}
	for i := 0; i < 2*stub.MissCacheEntries; i++ {
		insertEvict()
	}
	m["ecscache.insert_evict_ns"] = timeNS(budget, insertEvict)
}

// microResolver times HandleDNS over an in-memory transport.
func microResolver(m map[string]float64, budget time.Duration) {
	n := 0
	hitQueries := make([]*dnswire.Message, stub.HotNames)
	hit := newResolver(0, cannedTransport{}, nil)
	for i := range hitQueries {
		hitQueries[i] = ecsQuery(uint16(i), fmt.Sprintf("n%d.%s", i, stub.Zone), i%stub.HotSubnets)
		hit.HandleDNS(clientAddr, hitQueries[i])
	}
	handleHit := func() {
		n++
		hit.HandleDNS(clientAddr, hitQueries[n%len(hitQueries)])
	}
	m["resolver.hit_ns"] = timeNS(budget, handleHit)
	m["resolver.hit_allocs"] = allocs(handleHit)

	// More distinct names than the cache holds, so that by the time one
	// comes round again it has been evicted: every call is a miss.
	missQueries := make([]*dnswire.Message, 4*stub.MissCacheEntries)
	for i := range missQueries {
		missQueries[i] = ecsQuery(uint16(i), fmt.Sprintf("u%d.%s", i, stub.Zone), i%stub.MissSubnets)
	}
	miss := newResolver(stub.MissCacheEntries, cannedTransport{}, nil)
	handleMiss := func() {
		n++
		miss.HandleDNS(clientAddr, missQueries[n%len(missQueries)])
	}
	for range missQueries {
		handleMiss()
	}
	c0, u0 := miss.Counters()
	m["resolver.miss_ns"] = timeNS(budget, handleMiss)
	m["resolver.miss_allocs"] = allocs(handleMiss)
	if c1, u1 := miss.Counters(); u1-u0 < c1-c0 {
		panic(fmt.Sprintf("resolver: miss row hit the cache: %d client queries, %d upstream", c1-c0, u1-u0))
	}
}

// microTransport times the two ways out of the process: the upstream
// pool over a stub transport, and the two clients against a raw echo.
func microTransport(m map[string]float64, budget time.Duration) {
	pool, err := upstreams.New(upstreams.Config{
		Upstreams:  []upstreams.Upstream{{Addr: netip.MustParseAddr("192.0.2.1")}},
		Transport:  cannedTransport{},
		Now:        stub.Now,
		Concurrent: true,
		After:      stub.After,
	})
	must(err)
	q := ecsQuery(9, "n1-1."+stub.Zone, 5)
	poolExchange := func() {
		_, _, err := pool.Exchange(clientAddr, q)
		must(err)
	}
	m["upstreams.exchange_ns"] = timeNS(budget, poolExchange)
	m["upstreams.exchange_allocs"] = allocs(poolExchange)
	pool.Wait()

	addr, stop := echoResponder()
	defer stop()
	client := &dnsclient.Client{}
	clientExchange := func() {
		_, err := client.Exchange(addr, q)
		must(err)
	}
	m["dnsclient.client_exchange_ns"] = timeNS(budget, clientExchange)
	m["dnsclient.client_exchange_allocs"] = allocs(clientExchange)

	pipe, err := dnsclient.NewPipeline(dnsclient.PipelineConfig{Timeout: 3 * time.Second})
	must(err)
	defer pipe.Close()
	ctx := context.Background()
	pipeExchange := func() {
		_, err := pipe.Exchange(ctx, addr, q)
		must(err)
	}
	m["dnsclient.pipeline_exchange_ns"] = timeNS(budget, pipeExchange)
	m["dnsclient.pipeline_exchange_allocs"] = allocs(pipeExchange)
}

// microServer times a started server with a trivial handler from one
// loopback client, and the authority's handler on its own.
func microServer(m map[string]float64, budget time.Duration) {
	srv := dnsserver.New(handlerFunc(func(_ netip.Addr, q *dnswire.Message) *dnswire.Message {
		return dnswire.NewResponse(q)
	}))
	bound, err := srv.Start("127.0.0.1:0")
	must(err)
	defer srv.Close()
	conn, err := net.Dial("udp", bound.String())
	must(err)
	defer conn.Close()
	wire := stub.AppendQuery(nil, 3, stub.Item{Name: "n1-1." + stub.Zone, Subnet: [3]byte{20, 0, 5}})
	buf := make([]byte, 4096)
	rtt := func() {
		must(conn.SetReadDeadline(stub.Now().Add(stub.Timeout)))
		_, err := conn.Write(wire)
		must(err)
		_, err = conn.Read(buf)
		must(err)
	}
	m["dnsserver.udp_rtt_ns"] = timeNS(budget, rtt)
	m["dnsserver.udp_allocs"] = allocs(rtt)

	auth := newAuthority(authority.ScopeEcho(), 30)
	q := ecsQuery(4, "n1-1."+stub.Zone, 5)
	handle := func() { auth.HandleDNS(clientAddr, q) }
	m["authority.handle_ns"] = timeNS(budget, handle)
	m["authority.handle_allocs"] = allocs(handle)
}

func microScanner(m map[string]float64, budget time.Duration) {
	const jobs = 10000
	eng := &scanner.Engine{Concurrency: 64, Progress: scanner.NewProgress()} // as cmd/ecsscan runs it
	noop := func(context.Context, int) error { return nil }
	m["scanner.engine_job_ns"] = timeNS(budget, func() {
		must(eng.Run(context.Background(), jobs, noop))
	}) / jobs

	target := netip.MustParseAddr("198.51.100.7")
	probeName := func() {
		_, err := scanner.EncodeProbeName(target, zone)
		must(err)
	}
	m["scanner.probe_name_ns"] = timeNS(budget, probeName)
	m["scanner.probe_name_allocs"] = allocs(probeName)
}
