// Command authdns runs the paper's experimental authoritative
// nameserver on real UDP+TCP sockets: it serves a wildcard zone,
// answers ECS queries with a configurable scope policy (the paper used
// scope = source − 4 for its scan), and logs every query's ECS
// parameters to stdout — the raw material of the passive datasets.
//
// Usage:
//
//	authdns [-listen 127.0.0.1:5300] [-zone scan.example.org] \
//	        [-answer 192.0.2.53] [-ttl 30] [-scope source-4|echo|N] \
//	        [-zonefile db.example]
//
// Try it with cmd/ecsscan or dig:
//
//	dig @127.0.0.1 -p 5300 +subnet=203.0.113.0/24 test.scan.example.org
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/netip"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnsserver"
	"ecsdns/internal/dnswire"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:5300", "UDP+TCP listen address")
	zoneName := flag.String("zone", "scan.example.org", "zone to serve (wildcard A for all names)")
	zoneFile := flag.String("zonefile", "", "serve records from an RFC 1035 master file instead of the wildcard zone")
	answer := flag.String("answer", "192.0.2.53", "wildcard A answer")
	ttl := flag.Uint("ttl", 30, "answer TTL in seconds")
	scopeSpec := flag.String("scope", "source-4", "ECS scope policy: source-4, echo, or a fixed number")
	quiet := flag.Bool("quiet", false, "suppress per-query logging")
	maxInflight := flag.Int("max-inflight", dnsserver.DefaultMaxInflight, "UDP worker-pool cap and admission-queue depth, so up to 2x this many queries are queued for or on a worker at once (admission control); with -quiet the authority answers every query on the read loop, which bypasses the queue, and without it every query goes through the queue to be logged")
	maxConns := flag.Int("max-conns", dnsserver.DefaultMaxConns, "simultaneous TCP connections (-1 = unlimited)")
	overflow := flag.String("overflow", "drop", "admission overflow policy: drop or servfail")
	rrl := flag.Float64("rrl", 0, "response-rate limit in responses/s per client /24 (/56); every 2nd refusal slips a TC=1 reply (0 = off)")
	drain := flag.Duration("drain", 5*time.Second, "graceful-drain budget on SIGTERM before force close")
	flag.Parse()

	if flag.NArg() > 0 {
		log.Fatalf("authdns: unexpected arguments %q", flag.Args())
	}
	origin, err := dnswire.ParseName(*zoneName)
	if err != nil {
		log.Fatalf("authdns: bad zone: %v", err)
	}
	addr, err := netip.ParseAddr(*answer)
	if err != nil {
		log.Fatalf("authdns: bad answer address: %v", err)
	}
	scope, err := parseScope(*scopeSpec)
	if err != nil {
		log.Fatalf("authdns: %v", err)
	}
	if *maxInflight <= 0 {
		log.Fatalf("authdns: -max-inflight must be positive, got %d", *maxInflight)
	}
	if *maxConns == 0 || *maxConns < -1 {
		log.Fatalf("authdns: -max-conns must be positive or -1 (unlimited), got %d", *maxConns)
	}
	policy, err := dnsserver.ParseOverflow(*overflow)
	if err != nil {
		log.Fatalf("authdns: %v", err)
	}
	if *drain <= 0 {
		log.Fatalf("authdns: -drain must be positive, got %v", *drain)
	}

	srv := authority.NewServer(authority.Config{
		ECSEnabled: true,
		Scope:      scope,
		Now:        time.Now,
	})
	var zone *authority.Zone
	if *zoneFile != "" {
		f, err := os.Open(*zoneFile)
		if err != nil {
			log.Fatalf("authdns: %v", err)
		}
		zone, err = authority.ParseZoneFile(f, origin)
		f.Close()
		if err != nil {
			log.Fatalf("authdns: %v", err)
		}
		origin = zone.Origin
	} else {
		zone = authority.NewZone(origin, uint32(*ttl))
		zone.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: addr})
		zone.MustAdd(dnswire.RR{Name: origin, Data: &dnswire.NSRData{Host: mustPrepend(origin, "ns1")}})
	}
	srv.AddZone(zone)
	if !*quiet {
		srv.SetLog(func(r authority.LogRecord) {
			ecs := "-"
			if r.QueryHasECS {
				ecs = r.QueryECS.String()
			}
			fmt.Printf("%s resolver=%s q=%s/%s ecs=%s scope=%d rcode=%s\n",
				r.Time.Format(time.RFC3339), r.Resolver, r.Name, r.Type, ecs, r.RespScope, r.RCode)
		})
	}

	ds := dnsserver.New(srv)
	ds.MaxInflight = *maxInflight
	ds.MaxConns = *maxConns
	ds.Overflow = policy
	ds.RRL = *rrl
	bound, err := ds.Start(*listen)
	if err != nil {
		log.Fatalf("authdns: %v", err)
	}
	log.Printf("authdns: serving %s on %s (udp+tcp), scope policy %s", origin, bound, *scopeSpec)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("authdns: shutting down (draining up to %v)", *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := ds.Shutdown(ctx); err != nil {
		log.Printf("authdns: drain incomplete, force-closed: %v", err)
	}
	st := ds.Stats()
	log.Printf("authdns: %s", st)
	if err := st.Check(); err != nil {
		log.Printf("authdns: accounting: %v", err)
	}
}

func parseScope(spec string) (authority.ScopeFunc, error) {
	switch {
	case spec == "echo":
		return authority.ScopeEcho(), nil
	case strings.HasPrefix(spec, "source-"):
		d, err := strconv.Atoi(strings.TrimPrefix(spec, "source-"))
		if err != nil || d < 0 || d > 128 {
			return nil, fmt.Errorf("bad scope spec %q", spec)
		}
		return authority.ScopeSourceMinus(uint8(d)), nil
	default:
		n, err := strconv.Atoi(spec)
		if err != nil || n < 0 || n > 128 {
			return nil, fmt.Errorf("bad scope spec %q", spec)
		}
		return authority.ScopeFixed(uint8(n)), nil
	}
}

func mustPrepend(origin dnswire.Name, label string) dnswire.Name {
	n, err := origin.Prepend(label)
	if err != nil {
		log.Fatalf("authdns: %v", err)
	}
	return n
}
