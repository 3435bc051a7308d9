package core

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/geo"
	"ecsdns/internal/netem"
	"ecsdns/internal/resolver"
	"ecsdns/internal/scanner"
)

// cohort is a group of resolvers sharing a behavior profile, sized by
// the paper's counts and scaled by Config.Scale.
type cohort struct {
	// label names the cohort in notes.
	label string
	// paperCount is the size in the paper's datasets.
	paperCount int
	// profile builds the resolver profile (fresh per resolver so probe
	// names can differ).
	profile func() resolver.Profile
	// v6 places the resolver (and its clients) in IPv6 space.
	v6 bool
	// singleAS packs the whole cohort into one autonomous system — the
	// paper's "dominant AS" holds 3067 of the 4147 resolvers.
	singleAS bool
}

// cdnCohorts reproduces the marginals of Table 1 (CDN column) and the
// §6.1 probing census simultaneously. The counts are the paper's; see
// EXPERIMENTS.md for the ±4% reconciliation between the two marginals.
func cdnCohorts() []cohort {
	probe := func(p resolver.Profile) func() resolver.Profile {
		return func() resolver.Profile { return p }
	}
	withBits := func(bits int) func() resolver.Profile {
		return func() resolver.Profile {
			p := resolver.FullPrefixProfile()
			p.V4SourceBits = bits
			return p
		}
	}
	mixed := func(bits []int, jam bool) func() resolver.Profile {
		return func() resolver.Profile {
			p := resolver.FullPrefixProfile()
			p.Probing = resolver.ProbeRandom
			p.MixedV4Bits = bits
			p.JamLastByte = jam
			p.JamValue = 0x01
			return p
		}
	}
	hostnames := func() resolver.Profile {
		p := resolver.GoogleLikeProfile()
		p.Probing = resolver.ProbeHostnames
		p.ProbeNames = []dnswire.Name{probeHostname}
		return p
	}
	interval := func() resolver.Profile {
		p := resolver.LoopbackProberProfile()
		p.ProbeNames = []dnswire.Name{probeHostname}
		return p
	}
	onMiss := func() resolver.Profile {
		p := resolver.GoogleLikeProfile()
		p.Probing = resolver.ProbeOnMiss
		p.ProbeNames = []dnswire.Name{probeHostname}
		return p
	}
	random := func() resolver.Profile {
		p := resolver.GoogleLikeProfile()
		p.Probing = resolver.ProbeRandom
		return p
	}
	v6prof := func(bits int) func() resolver.Profile {
		return func() resolver.Profile {
			p := resolver.GoogleLikeProfile()
			p.V6SourceBits = bits
			return p
		}
	}
	return []cohort{
		// §6.1 class 1: ECS on 100% of address queries.
		{"all/32-jammed (dominant AS)", 2970, probe(resolver.JammedProfile()), false, true},
		{"all/24", 180, probe(resolver.GoogleLikeProfile()), false, false},
		{"all/18", 60, withBits(18), false, false},
		{"all/22", 19, withBits(22), false, false},
		{"all/25", 1, probe(resolver.TwentyFiveBitProfile()), false, false},
		{"all/32-plain", 152, withBits(32), false, false},
		{"all/v6-56", 56, v6prof(56), true, false},
		{"all/v6-48", 60, v6prof(48), true, false},
		{"all/v6-32", 28, v6prof(32), true, false},
		{"all/v6-64", 4, v6prof(64), true, false},
		// §6.1 class 2: specific hostnames, caching disabled.
		{"hostnames-no-cache", 258, hostnames, false, false},
		// §6.1 class 3: 30-minute loopback probes.
		{"interval-loopback", 32, interval, false, false},
		// §6.1 class 4: ECS on cache miss only.
		{"on-miss", 88, onMiss, false, false},
		// §6.1 remainder: no discernible pattern.
		{"random", 236, random, false, false},
		{"random/32", 69, withBits32Random(), false, false},
		{"random/25+32-jam", 78, mixed([]int{25, 32}, true), false, false},
		{"random/24+25+32-jam", 1, mixed([]int{24, 25, 32}, true), false, false},
		{"random/24+32-jam", 3, mixed([]int{24, 32}, true), false, false},
	}
}

func withBits32Random() func() resolver.Profile {
	return func() resolver.Profile {
		p := resolver.FullPrefixProfile()
		p.Probing = resolver.ProbeRandom
		p.V4SourceBits = 32
		return p
	}
}

// probeHostname is the dedicated name hostname-pinned and interval
// probers use.
const probeHostname = dnswire.Name("pinned.cdn-d.example.")

// §6.3 cache-behavior cohorts (203 studied resolvers).
func cachingCohorts() []cohort {
	probe := func(f func() resolver.Profile) func() resolver.Profile { return f }
	return []cohort{
		{"caching/correct", 76, probe(resolver.CompliantProfile), false, false},
		{"caching/ignores-scope", 103, probe(resolver.IgnoreScopeProfile), false, false},
		{"caching/accepts-long", 15, probe(resolver.LongPrefixProfile), false, false},
		{"caching/caps-22", 8, probe(resolver.Cap22Profile), false, false},
		{"caching/private-prefix", 1, probe(resolver.PrivatePrefixProfile), false, false},
	}
}

// scaled converts a paper count to the simulation size.
func scaled(paperCount int, scale float64) int {
	n := int(float64(paperCount)*scale + 0.5)
	if n < 1 && paperCount > 0 {
		n = 1
	}
	return n
}

// Study is the assembled ecosystem the behavior experiments run in: one
// world, one network, a whitelisting CDN authority (the passive vantage),
// an experimental scan authority, and the resolver population.
type Study struct {
	Cfg   Config
	World *geo.Internet
	Net   *netem.Network

	// CDNLogs records the non-whitelisted CDN traffic (the CDN
	// dataset); ScanLogs records scan-zone traffic (the Scan dataset).
	CDNLogs  *scanner.LogBuffer
	ScanLogs *scanner.LogBuffer
	Scope    *scanner.ScopeControl

	CDNZone  dnswire.Name
	ScanZone dnswire.Name
	CDNAddr  netip.Addr
	ScanAddr netip.Addr

	Directory *resolver.Directory

	// Population groups.
	CDNResolvers  []*resolver.Resolver // the 4147-analog, non-whitelisted
	GoogleFleet   []*resolver.Resolver // whitelisted, scan-visible
	ScanOnly      []*resolver.Resolver // ECS resolvers only the scan finds
	NonECS        []*resolver.Resolver
	CohortOf      map[netip.Addr]string
	ScannerSource netip.Addr

	// Forwarders built for the scan, with their upstreams.
	OpenForwarders []netip.Addr

	nextHost int
}

// BuildStudy assembles the ecosystem at cfg.Scale.
func BuildStudy(cfg Config) *Study {
	w := geo.Build(geo.Config{Seed: cfg.Seed, NumASes: 400, BlocksPerAS: 2})
	n := netem.New(w)
	if cfg.Faults != "" {
		plan, err := netem.ParseFaultPlan(cfg.Faults)
		if err != nil {
			panic("core: invalid Config.Faults: " + err.Error())
		}
		n.SetFaults(plan, cfg.Seed)
	}
	s := &Study{
		Cfg: cfg, World: w, Net: n,
		CDNLogs: &scanner.LogBuffer{}, ScanLogs: &scanner.LogBuffer{},
		Scope:    scanner.NewScopeControl(),
		CDNZone:  "cdn-d.example.",
		ScanZone: "scan.example.org.",
		CohortOf: make(map[netip.Addr]string),
	}

	// The major CDN's authoritative: ECS only for whitelisted resolvers
	// (none of the studied population), 20-second TTLs.
	s.CDNAddr = w.AddrInCity(geo.CityIndex("Boston"), 30, 53)
	whitelisted := map[netip.Addr]bool{}
	cdnAuth := authority.NewServer(authority.Config{
		Addr:       s.CDNAddr,
		ECSEnabled: true,
		Whitelist:  func(a netip.Addr) bool { return whitelisted[a] },
		Scope:      authority.ScopeFixed(24),
		Now:        n.Clock().Now,
	})
	cz := authority.NewZone(s.CDNZone, 20)
	cz.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.190")})
	cz.SetWildcard(dnswire.TypeAAAA, &dnswire.AAAARData{Addr: netip.MustParseAddr("2001:db8:99::1")})
	cdnAuth.AddZone(cz)
	cdnAuth.SetLog(func(r authority.LogRecord) {
		if !whitelisted[r.Resolver] {
			s.CDNLogs.Append(r)
		}
	})
	n.Register(s.CDNAddr, cdnAuth)

	// The experimental scan authority: ECS for everyone, scope control.
	s.ScanAddr = w.AddrInCity(geo.CityIndex("Cleveland"), 30, 53)
	scanAuth := authority.NewServer(authority.Config{
		Addr:       s.ScanAddr,
		ECSEnabled: true,
		Scope:      s.Scope.Func(),
		RawScope:   true,
		Now:        n.Clock().Now,
	})
	sz := authority.NewZone(s.ScanZone, 30)
	sz.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.53")})
	scanAuth.AddZone(sz)
	scanAuth.SetLog(s.ScanLogs.Append)
	n.Register(s.ScanAddr, scanAuth)

	s.Directory = resolver.NewDirectory()
	s.Directory.Add(s.CDNZone, s.CDNAddr)
	s.Directory.Add(s.ScanZone, s.ScanAddr)

	s.ScannerSource = w.AddrInCity(geo.CityIndex("Cleveland"), 31, 9)

	// Non-whitelisted ECS population (the CDN dataset's 4147-analog).
	// The dominant-AS cohort is packed into one Chinese AS, as in §4.
	dominantAS := s.findCNAS()
	salt := 100
	for _, c := range cdnCohorts() {
		for i := 0; i < scaled(c.paperCount, cfg.Scale); i++ {
			var r *resolver.Resolver
			if c.singleAS {
				r = s.addResolverInAS(dominantAS, i, c.profile())
			} else {
				r = s.addResolver(salt, c.profile(), c.v6)
			}
			s.CohortOf[r.Addr()] = c.label
			s.CDNResolvers = append(s.CDNResolvers, r)
			salt++
		}
	}

	// Google-like fleet: whitelisted at the CDN, dominant in the scan.
	for i := 0; i < scaled(1256, cfg.Scale); i++ {
		r := s.addResolver(salt, resolver.GoogleLikeProfile(), false)
		whitelisted[r.Addr()] = true
		s.CohortOf[r.Addr()] = "google"
		s.GoogleFleet = append(s.GoogleFleet, r)
		salt++
	}

	// ECS resolvers only the scan can see (never resolve CDN names).
	for i := 0; i < scaled(44, cfg.Scale); i++ {
		r := s.addResolver(salt, resolver.GoogleLikeProfile(), false)
		s.CohortOf[r.Addr()] = "scan-only"
		s.ScanOnly = append(s.ScanOnly, r)
		salt++
	}

	// Non-ECS resolvers reachable through the scan.
	for i := 0; i < scaled(1200, cfg.Scale); i++ {
		r := s.addResolver(salt, resolver.NonECSProfile(), false)
		s.CohortOf[r.Addr()] = "non-ecs"
		s.NonECS = append(s.NonECS, r)
		salt++
	}
	return s
}

// findCNAS returns the index of the first Chinese AS in the world — the
// home of the dominant resolver cohort.
func (s *Study) findCNAS() int {
	for i := 0; i < s.World.NumASes(); i++ {
		if s.World.ASByIndex(i).Country == "CN" {
			return i
		}
	}
	return 0
}

// addResolverInAS places the i-th resolver of a cohort inside one
// specific autonomous system's address space.
func (s *Study) addResolverInAS(asIdx, i int, p resolver.Profile) *resolver.Resolver {
	as := s.World.ASByIndex(asIdx)
	blk := as.Blocks[i%len(as.Blocks)]
	// Spread across the /16's subnets and hosts so even paper-scale
	// cohorts (thousands of resolvers) get distinct addresses.
	slot := i / len(as.Blocks)
	addr := netip.AddrFrom4([4]byte{
		byte(blk >> 8), byte(blk), byte(slot % 256), byte(10 + slot/256%240),
	})
	r := resolver.New(resolver.Config{
		Addr:      addr,
		Transport: s.Net,
		Now:       s.Net.Clock().Now,
		Directory: s.Directory,
		Profile:   p,
		Seed:      int64(9000 + i),
	})
	s.Net.Register(addr, r)
	return r
}

// addResolver creates and registers one resolver at a deterministic
// location.
func (s *Study) addResolver(salt int, p resolver.Profile, v6 bool) *resolver.Resolver {
	city := salt % len(geo.Cities)
	var addr netip.Addr
	if v6 {
		rng := saltRNG(s.Cfg.Seed, salt)
		addr = s.World.RandomClientV6(rng)
	} else {
		addr = s.World.AddrInCity(city, salt, 53)
	}
	r := resolver.New(resolver.Config{
		Addr:      addr,
		Transport: s.Net,
		Now:       s.Net.Clock().Now,
		Directory: s.Directory,
		Profile:   p,
		Seed:      int64(salt),
	})
	s.Net.Register(addr, r)
	return r
}

// hostname allocates a unique CDN-zone hostname.
func (s *Study) hostname() dnswire.Name {
	s.nextHost++
	return dnswire.Name(fmt.Sprintf("h%05d.%s", s.nextHost, s.CDNZone))
}

// DriveCDNWorkload sends each non-whitelisted resolver the fixed client
// query pattern that lets the passive classifier discriminate the §6.1
// probing classes: fresh queries, within-TTL repeats, a different-/24
// repeat within a minute, a post-TTL repeat, and a 30-minute-later round.
func (s *Study) DriveCDNWorkload() {
	clock := s.Net.Clock()
	for i, r := range s.CDNResolvers {
		base := clock.Now()
		h := make([]dnswire.Name, 5)
		prof := s.CohortOf[r.Addr()]
		for j := range h {
			h[j] = s.hostname()
		}
		// Pinned-name cohorts probe a dedicated hostname.
		if prof == "hostnames-no-cache" || prof == "interval-loopback" || prof == "on-miss" {
			h[0] = probeHostname
		}
		cA := s.clientFor(r, 0)
		cB := s.clientFor(r, 1)

		step := func(offset time.Duration, client netip.Addr, names ...dnswire.Name) {
			clock.Set(base.Add(offset))
			for _, name := range names {
				q := dnswire.NewQuery(uint16(i+1), name, dnswire.TypeA)
				if client.Is6() && !client.Is4In6() {
					q = dnswire.NewQuery(uint16(i+1), name, dnswire.TypeAAAA)
				}
				q.EDNS = dnswire.NewEDNS()
				s.Net.Exchange(client, r.Addr(), q) //nolint:errcheck // drops are part of the ecosystem
			}
		}
		step(0, cA, h[0], h[1], h[2])
		step(10*time.Second, cA, h[0], h[1])
		// A second client in a different /24 with a fresh name: its
		// distinct address exposes per-client /32 prefix behavior.
		step(15*time.Second, cB, h[0], h[4])
		// Post-TTL requeries at sub-minute gaps: they separate the
		// random senders (ECS may fire within a minute of the previous
		// query) from the disciplined on-miss class.
		step(25*time.Second, cA, h[1])
		step(50*time.Second, cA, h[2])
		step(55*time.Second, cA, h[1])
		step(80*time.Second, cA, h[0])
		step(30*time.Minute, cA, h[0], h[3])
		// One more post-TTL requery at a sub-minute gap, late in the
		// window, to further separate coin-flip senders from the
		// on-miss discipline.
		step(30*time.Minute+21*time.Second, cA, h[3])
	}
}

// clientFor returns the k-th client of a resolver, in distinct /24s (or
// /48s for IPv6 resolvers).
func (s *Study) clientFor(r *resolver.Resolver, k int) netip.Addr {
	if r.Addr().Is6() && !r.Addr().Is4In6() {
		rng := saltRNG(s.Cfg.Seed, int(r.Addr().As16()[15])+k*7)
		return s.World.RandomClientV6(rng)
	}
	a := r.Addr().As4()
	// Same AS block, different /24 and host byte per k so that /32
	// prefix policies reveal their true last-byte behavior.
	a[2] = byte(int(a[2]) + 40 + 13*k)
	a[3] = byte(10 + 67*k)
	return netip.AddrFrom4(a)
}

// BuildScanForwarders attaches open forwarders (and some hidden-resolver
// chains) to the scan-visible egress population and returns the ingress
// list to probe.
func (s *Study) BuildScanForwarders() []netip.Addr {
	var ingresses []netip.Addr
	add := func(upstream netip.Addr, salt int, chained bool) {
		fwdAddr := s.World.AddrInCity((salt*7)%len(geo.Cities), salt+5000, 99)
		up := upstream
		if chained {
			hiddenAddr := s.World.AddrInCity((salt*13)%len(geo.Cities), salt+9000, 98)
			s.Net.Register(hiddenAddr, &resolver.Forwarder{
				Addr: hiddenAddr, Upstream: upstream, Transport: s.Net, Open: true,
			})
			up = hiddenAddr
		}
		s.Net.Register(fwdAddr, &resolver.Forwarder{
			Addr: fwdAddr, Upstream: up, Transport: s.Net, Open: true,
		})
		ingresses = append(ingresses, fwdAddr)
	}

	salt := 1
	// Google fleet: reachable through many forwarders, half behind
	// hidden chains (the paper: ~half of ECS queries carried hidden
	// prefixes).
	for _, r := range s.GoogleFleet {
		add(r.Addr(), salt, salt%2 == 0)
		salt++
	}
	// A subset of the CDN population is scan-reachable: the paper found
	// 234 of its 278 scan-discovered non-Google resolvers in the CDN
	// logs.
	reach := scaled(234, s.Cfg.Scale)
	stride := 1
	if reach > 0 {
		stride = len(s.CDNResolvers) / reach
		if stride < 1 {
			stride = 1
		}
	}
	for i := 0; i < reach && i*stride < len(s.CDNResolvers); i++ {
		r := s.CDNResolvers[i*stride]
		add(r.Addr(), salt, salt%3 == 0)
		salt++
	}
	// Scan-only ECS resolvers and non-ECS resolvers.
	for _, r := range s.ScanOnly {
		add(r.Addr(), salt, false)
		salt++
	}
	for _, r := range s.NonECS {
		add(r.Addr(), salt, false)
		salt++
	}
	s.OpenForwarders = ingresses
	return ingresses
}

// RunScan probes all forwarders against the scan zone.
func (s *Study) RunScan() scanner.Result {
	sc := &scanner.Scan{Exchange: s.scanExchange, Zone: s.ScanZone}
	if s.OpenForwarders == nil {
		s.BuildScanForwarders()
	}
	return sc.Run(s.OpenForwarders, s.ScanLogs)
}

// BuildCachingPopulation creates the §6.3 population (203-analog) wired
// to the scan authority, returning resolvers with their expected class
// labels.
func (s *Study) BuildCachingPopulation() []CachingSubject {
	var out []CachingSubject
	salt := 20000
	for _, c := range cachingCohorts() {
		for i := 0; i < scaled(c.paperCount, s.Cfg.Scale); i++ {
			r := s.addResolver(salt, c.profile(), false)
			out = append(out, CachingSubject{Resolver: r, Label: c.label})
			salt++
		}
	}
	return out
}

// CachingSubject pairs a resolver with its ground-truth cohort.
type CachingSubject struct {
	Resolver *resolver.Resolver
	Label    string
}

// ProbeCachingBehavior runs the §6.3 two-query methodology against each
// subject and returns the classification census. As in the paper, each
// resolver first gets the acceptance pre-test: only paths that convey
// injected prefixes are probed with technique 1; the rest fall back to
// vantage forwarders.
func (s *Study) ProbeCachingBehavior(subjects []CachingSubject) (map[scanner.CachingClass]int, error) {
	census := make(map[scanner.CachingClass]int)
	vantage := 0
	for _, sub := range subjects {
		prober, err := s.classifyProber(sub.Resolver, vantage)
		if err != nil {
			return census, err
		}
		vantage += 3
		obs, err := prober.Probe()
		if err != nil {
			return census, err
		}
		census[scanner.Classify(obs)]++
	}
	return census, nil
}

// classifyProber builds the right prober for a resolver: direct
// injection when the acceptance pre-test passes, vantage forwarders
// otherwise.
func (s *Study) classifyProber(r *resolver.Resolver, vantage int) (*scanner.Prober, error) {
	direct := s.proberFor(r, true, vantage)
	ok, err := direct.DetectInjection()
	if err != nil {
		return nil, err
	}
	if ok {
		return direct, nil
	}
	return s.proberFor(r, false, vantage), nil
}

func (s *Study) proberFor(r *resolver.Resolver, canInject bool, vantageSalt int) *scanner.Prober {
	via := [3]netip.Addr{r.Addr(), r.Addr(), r.Addr()}
	if !canInject {
		for i, p := range scanner.InjectionPrefixes {
			a := p.Addr().As4()
			a[2] += byte(vantageSalt / 3 % 3) // reuse the same /22 structure
			a[3] = byte(9 + vantageSalt%200)
			via[i] = netip.AddrFrom4(a)
			s.Net.Register(via[i], &resolver.Forwarder{
				Addr: via[i], Upstream: r.Addr(), Transport: s.Net, Open: true,
			})
		}
	}
	return &scanner.Prober{
		Zone:      s.ScanZone,
		Logs:      s.ScanLogs,
		Scope:     s.Scope,
		Exchange:  s.scanExchange,
		Via:       via,
		CanInject: canInject,
	}
}

// scanExchange sends one query from the scanner's source: the transport
// of both the scan and the §6.3 probers.
func (s *Study) scanExchange(to netip.Addr, q *dnswire.Message) (*dnswire.Message, error) {
	resp, _, err := s.Net.Exchange(s.ScannerSource, to, q)
	return resp, err
}

// saltRNG derives a deterministic RNG from the study seed and a salt.
func saltRNG(seed int64, salt int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(salt)))
}
