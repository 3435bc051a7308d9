// Scanner: an active measurement campaign over a simulated open-resolver
// population — hostname-encoded probes associate ingress forwarders with
// the egress resolvers they use, detect ECS support and hidden
// resolvers, then the two-query methodology classifies each reachable
// resolver's caching behavior (§6.3).
//
// The probe phase runs through the concurrent scan engine; -concurrency,
// -rate, and -timeout expose its knobs. The in-memory netem fabric is
// not safe for concurrent handler execution, so the transport itself is
// serialized behind a mutex here — against real sockets (cmd/ecsscan
// -targets) the same engine fans out for real.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"sync"
	"time"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
	"ecsdns/internal/geo"
	"ecsdns/internal/netem"
	"ecsdns/internal/resolver"
	"ecsdns/internal/scanner"
)

func main() {
	concurrency := flag.Int("concurrency", 8, "probes in flight during the scan phase")
	rate := flag.Float64("rate", 0, "max probe queries/sec (0 = unlimited)")
	timeout := flag.Duration("timeout", 3*time.Second, "per-probe timeout")
	faults := flag.String("faults", "", `fault-injection spec for the fabric, e.g. "loss=0.2,servfail=0.1" (see netem.ParseFaultPlan)`)
	faultSeed := flag.Int64("fault-seed", 1, "seed for the fault RNG (same seed ⇒ same failure trace)")
	flag.Parse()
	world := geo.Build(geo.DefaultConfig)
	net := netem.New(world)
	plan, err := netem.ParseFaultPlan(*faults)
	if err != nil {
		fmt.Println("bad -faults:", err)
		os.Exit(2)
	}
	net.SetFaults(plan, *faultSeed)
	logs := &scanner.LogBuffer{}
	scope := scanner.NewScopeControl()

	// Our experimental authoritative nameserver in Cleveland.
	zone := dnswire.Name("scan.example.org.")
	authAddr := world.AddrInCity(geo.CityIndex("Cleveland"), 1, 53)
	auth := authority.NewServer(authority.Config{
		Addr: authAddr, ECSEnabled: true, Scope: scope.Func(), RawScope: true,
		Now: net.Clock().Now,
	})
	z := authority.NewZone(zone, 30)
	z.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.53")})
	auth.AddZone(z)
	auth.SetLog(logs.Append)
	net.Register(authAddr, auth)

	dir := resolver.NewDirectory()
	dir.Add(zone, authAddr)
	scannerAddr := world.AddrInCity(geo.CityIndex("Cleveland"), 2, 9)

	// A small resolver population with mixed behaviors, each behind an
	// open forwarder; one is chained through a hidden resolver.
	type target struct {
		name    string
		profile resolver.Profile
	}
	targets := []target{
		{"compliant", resolver.CompliantProfile()},
		{"ignore-scope", resolver.IgnoreScopeProfile()},
		{"cap-22", resolver.Cap22Profile()},
		{"jammed-/32", resolver.JammedProfile()},
		{"non-ECS", resolver.NonECSProfile()},
	}
	var ingresses []netip.Addr
	egressName := map[netip.Addr]string{}
	for i, tg := range targets {
		egress := resolver.New(resolver.Config{
			Addr:      world.AddrInCity((i*5)%len(geo.Cities), 10+i, 53),
			Transport: net, Now: net.Clock().Now, Directory: dir,
			Profile: tg.profile, Seed: int64(i),
		})
		net.Register(egress.Addr(), egress)
		egressName[egress.Addr()] = tg.name

		upstream := egress.Addr()
		if tg.name == "jammed-/32" {
			// Chain through a hidden resolver far from the forwarder.
			hidden := world.AddrInCity(geo.CityIndex("Rome"), 30+i, 98)
			net.Register(hidden, &resolver.Forwarder{
				Addr: hidden, Upstream: egress.Addr(), Transport: net, Open: true,
			})
			upstream = hidden
		}
		fwd := world.AddrInCity((i*11+3)%len(geo.Cities), 50+i, 99)
		net.Register(fwd, &resolver.Forwarder{
			Addr: fwd, Upstream: upstream, Transport: net, Open: true,
		})
		ingresses = append(ingresses, fwd)
	}

	// Phase 1: the scan, fanned out over the worker-pool engine. The
	// mutex serializes netem (see the package comment); everything above
	// the transport — worker pool, rate limiting, ID allocation,
	// response validation — runs concurrently.
	var netMu sync.Mutex
	prog := scanner.NewProgress()
	scan := &scanner.Scan{
		Exchange: func(_ context.Context, to netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
			netMu.Lock()
			defer netMu.Unlock()
			resp, _, err := net.Exchange(scannerAddr, to, q)
			return resp, err
		},
		Zone: zone, ScannerAddr: scannerAddr,
		Concurrency: *concurrency, Rate: *rate, Timeout: *timeout,
		Progress: prog,
	}
	res := scan.Run(ingresses, logs)
	snap := prog.Snapshot()
	fmt.Printf("probed %d ingresses, %d responded (%.0f probes/s wall-clock)\n",
		res.Probed, len(res.Responding), snap.QPS)
	if snap.Errors > 0 || !plan.IsZero() {
		fmt.Printf("  probe accounting: sent=%d done=%d errors=%d (timeouts=%d truncated=%d mismatched=%d)\n",
			snap.Sent, snap.Done, snap.Errors, snap.Timeouts, snap.Truncated, snap.Mismatched)
		fs := net.FaultStats()
		fmt.Printf("  fault layer: lost=%d blackouts=%d truncated=%d servfails=%d corrupted=%d delayed=%d\n",
			fs.Lost, fs.Blackouts, fs.Truncated, fs.ServFails, fs.Corrupted, fs.Delayed)
	}
	for ing, egs := range res.IngressToEgress {
		for _, eg := range egs {
			fmt.Printf("  ingress %-15s → egress %-15s (%s) ECS=%v\n",
				ing, eg, egressName[eg], res.ECSEgress[eg])
		}
	}
	for _, combo := range res.HiddenCombos {
		fmt.Printf("  hidden resolver detected: forwarder %s → hidden %s → egress %s (%s)\n",
			combo.Forwarder, combo.HiddenPrefix, combo.Egress, egressName[combo.Egress])
	}

	// Phase 2: cache-behavior classification of the ECS egresses.
	// Each resolver first gets the acceptance pre-test; paths that
	// convey injected prefixes get technique 1, the rest are probed
	// through three vantage forwarders in the methodology's /24 layout.
	fmt.Println("\ncache-behavior classification (§6.3 two-query methodology):")
	vantageSalt := 0
	for eg := range res.ECSEgress {
		eg := eg
		send := func(v int, name dnswire.Name, inject *ecsopt.ClientSubnet) error {
			q := dnswire.NewQuery(uint16(v+1), name, dnswire.TypeA)
			if inject != nil {
				ecsopt.Attach(q, *inject)
			}
			_, _, err := net.Exchange(scannerAddr, eg, q)
			return err
		}
		direct := &scanner.Prober{Zone: zone, Logs: logs, Scope: scope, Send: send}
		canInject, err := direct.DetectInjection()
		if err != nil {
			fmt.Printf("  injection pre-test for %s failed: %v\n", eg, err)
			os.Exit(1)
		}
		if !canInject {
			var fwds [3]netip.Addr
			for i, p := range scanner.InjectionPrefixes {
				a := p.Addr().As4()
				a[3] = byte(9 + vantageSalt)
				fwds[i] = netip.AddrFrom4(a)
				net.Register(fwds[i], &resolver.Forwarder{
					Addr: fwds[i], Upstream: eg, Transport: net, Open: true,
				})
			}
			vantageSalt++
			send = func(v int, name dnswire.Name, _ *ecsopt.ClientSubnet) error {
				q := dnswire.NewQuery(uint16(v+1), name, dnswire.TypeA)
				_, _, err := net.Exchange(scannerAddr, fwds[v], q)
				return err
			}
		}
		prober := &scanner.Prober{
			Zone: zone, Logs: logs, Scope: scope,
			Send: send, CanInject: canInject,
		}
		obs, err := prober.Probe()
		if err != nil {
			fmt.Printf("  probing %s failed: %v\n", eg, err)
			os.Exit(1)
		}
		class := scanner.Classify(obs)
		fmt.Printf("  %-15s (%-12s) injectable=%-5v → classified %q\n",
			eg, egressName[eg], canInject, class)
	}
}
