// Livewire: the whole stack over real sockets on loopback — an ECS
// authoritative server, an ECS recursive resolver in front of it, and a
// stub client probing through both, in one process.
package main

import (
	"context"
	"fmt"
	"log"
	"net/netip"
	"time"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnsclient"
	"ecsdns/internal/dnsserver"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
	"ecsdns/internal/resolver"
	"ecsdns/internal/upstreams/live"
)

func main() {
	// 1. Authoritative server with ECS (scope = source − 4, the scan
	// policy) on an ephemeral loopback port.
	auth := authority.NewServer(authority.Config{
		ECSEnabled: true,
		Scope:      authority.ScopeSourceMinus(4),
		Now:        time.Now,
	})
	zone := authority.NewZone("live.example.", 30)
	zone.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.80")})
	auth.AddZone(zone)
	authSrv := dnsserver.New(auth)
	authBound, err := authSrv.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer authSrv.Close()
	fmt.Printf("authoritative on %s\n", authBound)

	// 2. A compliant recursive resolver forwarding to it through the
	// upstream pool cmd/recursor builds: a pool of one.
	pool, upstream, err := live.NewPool(authBound.String(), false, true, true)
	if err != nil {
		log.Fatal(err)
	}
	defer upstream.Close()
	dir := resolver.NewDirectory()
	dir.Add("live.example.", netip.MustParseAddr("192.0.2.1")) // a placeholder: the pool picks the member
	res := resolver.New(resolver.Config{
		Addr:      netip.MustParseAddr("127.0.0.1"),
		Pool:      pool,
		Now:       time.Now,
		Directory: dir,
		Profile:   resolver.CompliantProfile(),
		Seed:      1,
	})
	resSrv := dnsserver.New(res)
	resBound, err := resSrv.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer resSrv.Close()
	fmt.Printf("recursive resolver on %s\n\n", resBound)

	// 3. A stub client queries through the resolver with ECS.
	client := &dnsclient.Client{}
	defer client.Close()
	cs := ecsopt.MustNew(netip.MustParseAddr("203.0.113.64"), 24)
	resp, err := client.Query(resBound.String(), "www.live.example.", dnswire.TypeA, &cs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("answer: %v\n", resp.Answers)
	if got, ok := dnsclient.ECSFromResponse(resp); ok {
		fmt.Printf("response ECS: %s — the authority scoped the answer to /%d\n",
			got, got.ScopePrefix)
	}

	// 4. A second query from the same /24 is a resolver cache hit; the
	// resolver's upstream counter proves it never left the cache.
	if _, err := client.Query(resBound.String(), "www.live.example.", dnswire.TypeA, &cs); err != nil {
		log.Fatal(err)
	}
	clientQ, upstreamQ := res.Counters()
	fmt.Printf("\nresolver served %d client queries with %d upstream queries (1 cache hit)\n",
		clientQ, upstreamQ)

	// 5. Drain both servers gracefully and print their accounting — the
	// same lifecycle the daemons run on SIGTERM.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := resSrv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	if err := authSrv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resolver server:  %s\n", resSrv.Stats())
	fmt.Printf("authority server: %s\n", authSrv.Stats())
}
