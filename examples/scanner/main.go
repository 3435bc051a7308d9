// Scanner: an active measurement campaign over a simulated open-resolver
// population — hostname-encoded probes associate ingress forwarders with
// the egress resolvers they use, detect ECS support and hidden
// resolvers, then the two-query methodology classifies each reachable
// resolver's caching behavior (§6.3).
//
// The probe phase is a serial in-process scan: the netem fabric answers
// each probe before its exchange returns, so probes go one at a time.
// Against real sockets, cmd/ecsscan -targets keeps many in flight. The
// same flags print the same output.
package main

import (
	"flag"
	"fmt"
	"net/netip"
	"os"
	"slices"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/geo"
	"ecsdns/internal/netem"
	"ecsdns/internal/resolver"
	"ecsdns/internal/scanner"
)

func main() {
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

	// Phase 1: the scan.
	exchange := func(to netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
		resp, _, err := net.Exchange(scannerAddr, to, q)
		return resp, err
	}
	scan := &scanner.Scan{Exchange: exchange, Zone: zone}
	res := scan.Run(ingresses, logs)
	fmt.Printf("probed %d ingresses, %d responded\n", res.Probed, len(res.Responding))
	if !plan.IsZero() {
		fs := net.FaultStats()
		fmt.Printf("  fault layer: lost=%d blackouts=%d truncated=%d servfails=%d corrupted=%d delayed=%d\n",
			fs.Lost, fs.Blackouts, fs.Truncated, fs.ServFails, fs.Corrupted, fs.Delayed)
	}
	for _, ing := range sortedAddrs(res.IngressToEgress) {
		for _, eg := range res.IngressToEgress[ing] {
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
	for _, eg := range sortedAddrs(res.ECSEgress) {
		via := [3]netip.Addr{eg, eg, eg}
		direct := &scanner.Prober{Zone: zone, Logs: logs, Scope: scope, Exchange: exchange, Via: via}
		canInject, err := direct.DetectInjection()
		if err != nil {
			fmt.Printf("  injection pre-test for %s failed: %v\n", eg, err)
			os.Exit(1)
		}
		if !canInject {
			for i, p := range scanner.InjectionPrefixes {
				a := p.Addr().As4()
				a[3] = byte(9 + vantageSalt)
				via[i] = netip.AddrFrom4(a)
				net.Register(via[i], &resolver.Forwarder{
					Addr: via[i], Upstream: eg, Transport: net, Open: true,
				})
			}
			vantageSalt++
		}
		prober := &scanner.Prober{
			Zone: zone, Logs: logs, Scope: scope,
			Exchange: exchange, Via: via, CanInject: canInject,
		}
		obs, err := prober.Probe()
		if err != nil {
			fmt.Printf("  probing %s failed: %v\n", eg, err)
			os.Exit(1)
		}
		fmt.Printf("  %-15s (%-12s) injectable=%-5v → classified %q\n",
			eg, egressName[eg], canInject, scanner.Classify(obs))
	}
}

// sortedAddrs returns m's keys in address order.
func sortedAddrs[V any](m map[netip.Addr]V) []netip.Addr {
	addrs := make([]netip.Addr, 0, len(m))
	for a := range m {
		addrs = append(addrs, a)
	}
	slices.SortFunc(addrs, netip.Addr.Compare)
	return addrs
}
