// Command recursor runs the module's ECS recursive resolver on real
// UDP+TCP sockets with a selectable behavior profile, forwarding cache
// misses to a configured authoritative server. Pointing it at authdns
// gives a two-process, real-socket replica of the paper's measurement
// setup.
//
// Usage:
//
//	recursor [-listen 127.0.0.1:5301] [-zone scan.example.org] \
//	         [-upstream 127.0.0.1:5300] [-profile compliant] \
//	         [-cache-entries 100000] [-cache-shards 8] \
//	         [-negative-ttl 30s] [-min-ttl 0] [-max-ttl 0]
//
// Cache misses go through the resilient upstream pool, over the servers
// of -upstreams or the one server of -upstream (a pool of one):
// health-gated failover, optional request hedging (-hedge),
// per-upstream circuit breakers (-breaker), and the adaptive EDNS
// payload ladder (-edns-ladder) that steps 4096 → 1232 → TCP on
// truncation.
//
// Profiles: compliant, google, jammed, ignore-scope, cap22,
// long-prefix, private-prefix, loopback-prober, none.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ecsdns/internal/dnsclient"
	"ecsdns/internal/dnsserver"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/resolver"
	"ecsdns/internal/upstreams"
	"ecsdns/internal/upstreams/live"
)

// sweepInterval is how often the cache is swept of entries too long
// expired to serve even stale. Against the resolver's one-hour stale
// bound, a minute keeps the overhang under 2 % of what the sweep exists
// to bound.
const sweepInterval = time.Minute

// checkUpstreamFlags rejects the one combination in which a flag the
// operator gave would be silently ignored: -upstream (given, not its
// default) beside the -upstreams list that replaces it.
func checkUpstreamFlags(upstreamSet bool, list string) error {
	if list != "" && upstreamSet {
		return errors.New("-upstream and -upstreams are mutually exclusive")
	}
	return nil
}

// newPool builds the upstream pool from the -upstreams list, or from
// -upstream when the list is empty (one upstream is a pool of one), and
// returns it with its client and spec. An error names the flag whose
// value it refuses: every upstream is an ip:port, as no name is looked
// up.
func newPool(upstream, list string, hedge, breaker, ladder bool) (*upstreams.Pool, *dnsclient.Client, string, error) {
	flagName, spec := "-upstreams", list
	if spec == "" {
		flagName, spec = "-upstream", upstream
	}
	pool, udp, err := live.NewPool(spec, hedge, breaker, ladder)
	if err != nil {
		return nil, nil, "", fmt.Errorf("%s: %v", flagName, err)
	}
	return pool, udp, spec, nil
}

// checkTTLFlags rejects a negative clamp, and a -min-ttl above -max-ttl:
// the ceiling wins, so the floor given would silently not hold.
func checkTTLFlags(negTTL, minTTL, maxTTL time.Duration) error {
	if negTTL < 0 || minTTL < 0 || maxTTL < 0 {
		return errors.New("TTL clamps must be non-negative")
	}
	if minTTL > 0 && maxTTL > 0 && minTTL > maxTTL {
		return fmt.Errorf("-min-ttl %v exceeds -max-ttl %v", minTTL, maxTTL)
	}
	return nil
}

func main() {
	listen := flag.String("listen", "127.0.0.1:5301", "UDP+TCP listen address")
	zoneName := flag.String("zone", "scan.example.org", "zone served by the upstream authority")
	upstream := flag.String("upstream", "127.0.0.1:5300", "authoritative server address")
	upstreamsSpec := flag.String("upstreams", "", "several upstreams with failover, ip:port[/priority[/weight]] comma-separated (empty = the one -upstream)")
	hedge := flag.Bool("hedge", false, "race a second upstream once the primary is slower than the p95 of recent answers (clamped to 10ms..2s)")
	breaker := flag.Bool("breaker", true, "per-upstream circuit breakers: 5 consecutive failures open one for 30s, 2 probe successes close it")
	ladder := flag.Bool("edns-ladder", true, "EDNS payload ladder: step 4096 → 1232 → TCP on truncation, relaxing one rung after 5m")
	profileName := flag.String("profile", "compliant", "ECS behavior profile")
	maxInflight := flag.Int("max-inflight", dnsserver.DefaultMaxInflight, "UDP worker-pool cap and admission-queue depth, so up to 2x this many queries are queued for or on a worker at once (admission control): cache misses; hits are answered on the read loop and bypass the queue")
	maxConns := flag.Int("max-conns", dnsserver.DefaultMaxConns, "simultaneous TCP connections (-1 = unlimited)")
	overflow := flag.String("overflow", "drop", "admission overflow policy: drop or servfail")
	rrl := flag.Float64("rrl", 0, "response-rate limit in responses/s per client /24 (/56); every 2nd refusal slips a TC=1 reply (0 = off)")
	drain := flag.Duration("drain", 5*time.Second, "graceful-drain budget on SIGTERM before force close")
	cacheEntries := flag.Int("cache-entries", 0, "cache capacity in entries, LRU-evicted over the bound (0 = unbounded)")
	cacheShards := flag.Int("cache-shards", 8, "independently locked cache shards (rounded up to a power of two)")
	negTTL := flag.Duration("negative-ttl", 0, "cap on cached negative-answer lifetime (0 = 30s default)")
	minTTL := flag.Duration("min-ttl", 0, "floor on cached positive-answer lifetime (0 = off)")
	maxTTL := flag.Duration("max-ttl", 0, "cap on every cached lifetime (0 = off)")
	flag.Parse()

	if flag.NArg() > 0 {
		log.Fatalf("recursor: unexpected arguments %q", flag.Args())
	}
	zone, err := dnswire.ParseName(*zoneName)
	if err != nil {
		log.Fatalf("recursor: bad zone: %v", err)
	}
	profile, err := profileByName(*profileName)
	if err != nil {
		log.Fatalf("recursor: %v", err)
	}
	if *maxInflight <= 0 {
		log.Fatalf("recursor: -max-inflight must be positive, got %d", *maxInflight)
	}
	if *maxConns == 0 || *maxConns < -1 {
		log.Fatalf("recursor: -max-conns must be positive or -1 (unlimited), got %d", *maxConns)
	}
	policy, err := dnsserver.ParseOverflow(*overflow)
	if err != nil {
		log.Fatalf("recursor: %v", err)
	}
	if *drain <= 0 {
		log.Fatalf("recursor: -drain must be positive, got %v", *drain)
	}
	if *cacheEntries < 0 {
		log.Fatalf("recursor: -cache-entries must be non-negative, got %d", *cacheEntries)
	}
	if *cacheShards < 1 {
		log.Fatalf("recursor: -cache-shards must be positive, got %d", *cacheShards)
	}
	if err := checkTTLFlags(*negTTL, *minTTL, *maxTTL); err != nil {
		log.Fatalf("recursor: %v", err)
	}

	// The directory routes the configured zone (and everything else) to
	// a placeholder address; the pool ignores it and picks a member.
	placeholder := netip.MustParseAddr("192.0.2.1")
	dir := resolver.NewDirectory()
	dir.Add(zone, placeholder)
	dir.Add(dnswire.Root, placeholder)

	self, err := netip.ParseAddrPort(*listen)
	if err != nil {
		log.Fatalf("recursor: bad -listen address, want ip:port: %v", err)
	}

	resCfg := resolver.Config{
		Addr:         self.Addr(),
		Now:          time.Now,
		Directory:    dir,
		Profile:      profile,
		Seed:         dnsclient.RandomSeed(),
		CacheEntries: *cacheEntries,
		CacheShards:  *cacheShards,
		NegativeTTL:  *negTTL,
		MinTTL:       *minTTL,
		MaxTTL:       *maxTTL,
	}
	upstreamSet := false
	flag.Visit(func(f *flag.Flag) { upstreamSet = upstreamSet || f.Name == "upstream" })
	if err := checkUpstreamFlags(upstreamSet, *upstreamsSpec); err != nil {
		log.Fatalf("recursor: %v", err)
	}
	// udp is the client every UDP query upstream leaves through; its
	// sockets are reported and closed on exit.
	pool, udp, spec, err := newPool(*upstream, *upstreamsSpec, *hedge, *breaker, *ladder)
	if err != nil {
		log.Fatalf("recursor: %v", err)
	}
	resCfg.Pool = pool
	res := resolver.New(resCfg)

	srv := dnsserver.New(res)
	srv.MaxInflight = *maxInflight
	srv.MaxConns = *maxConns
	srv.Overflow = policy
	srv.RRL = *rrl
	bound, err := srv.Start(*listen)
	if err != nil {
		log.Fatalf("recursor: %v", err)
	}
	log.Printf("recursor: %s profile on %s, pool of %d upstreams [%s]", *profileName, bound, strings.Count(spec, ",")+1, spec)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	// Inserts collect expired entries only under the name they touch;
	// the sweep is what takes out names never asked for again.
	sweep := time.NewTicker(sweepInterval)
	defer sweep.Stop()
serve:
	for {
		select {
		case now := <-sweep.C:
			res.Sweep(now)
		case <-sig:
			break serve
		}
	}
	log.Printf("recursor: shutting down (draining up to %v)", *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("recursor: drain incomplete, force-closed: %v", err)
	}
	client, up := res.Counters()
	log.Printf("recursor: served %d client queries, sent %d upstream", client, up)
	st, cache := srv.Stats(), res.Cache().Stats()
	log.Printf("recursor: %s", st)
	log.Printf("recursor: cache %s", cache)
	pool.Wait()
	c := pool.Counters()
	log.Printf("recursor: pool issued=%d won=%d lost=%d cancelled=%d failed=%d picks=%d granted=%d refused=%d",
		c.Issued, c.Won, c.Lost, c.Cancelled, c.Failed, c.Picks, c.Granted, c.Refused)
	log.Printf("recursor: pool hedges=%d failovers=%d breaker-trips=%d ladder-steps=%d tcp-fallbacks=%d fast-fails=%d",
		c.Hedges, c.Failovers, c.BreakerTrips, c.LadderSteps, c.TCPFallbacks, c.FastFails)
	// No key or message from here on may contain "shed=" or "received=":
	// the benchmark reads those two out of the whole of stderr.
	f := res.Failures()
	log.Printf("recursor: failures retries=%d exhausted=%d truncated=%d mismatched=%d servfails=%d stale=%d servfail-answers=%d",
		f.UpstreamRetries, f.UpstreamFailures, f.UpstreamTruncated, f.UpstreamMismatched, f.UpstreamServFails, f.ServedStale, f.ServFailsReturned)
	// reused/(dialed+reused) is the share of UDP queries that left on a
	// parked socket.
	u := udp.Stats()
	log.Printf("recursor: upstream sockets dialed=%d reused=%d retired=%d", u.Dialed, u.Reused, u.Retired)
	for _, err := range []error{st.Check(), cache.Check(), c.Check(), f.Check(), u.Check()} {
		if err != nil {
			log.Printf("recursor: accounting: %v", err)
		}
	}
	udp.Close()
}

func profileByName(name string) (resolver.Profile, error) {
	switch name {
	case "compliant":
		return resolver.CompliantProfile(), nil
	case "google":
		return resolver.GoogleLikeProfile(), nil
	case "jammed":
		return resolver.JammedProfile(), nil
	case "ignore-scope":
		return resolver.IgnoreScopeProfile(), nil
	case "cap22":
		return resolver.Cap22Profile(), nil
	case "long-prefix":
		return resolver.LongPrefixProfile(), nil
	case "private-prefix":
		return resolver.PrivatePrefixProfile(), nil
	case "loopback-prober":
		return resolver.LoopbackProberProfile(), nil
	case "none":
		return resolver.NonECSProfile(), nil
	}
	return resolver.Profile{}, fmt.Errorf("unknown profile %q", name)
}
