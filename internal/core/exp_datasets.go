package core

import (
	"net/netip"

	"ecsdns/internal/passive"
	"ecsdns/internal/report"
	"ecsdns/internal/traces"
)

func init() {
	register(Experiment{
		ID:    "section4",
		Title: "Dataset summary statistics (§4)",
		Run:   runSection4,
	})
}

// runSection4 reproduces the paper's §4 dataset descriptions as measured
// properties of the generated ecosystem: population counts, address
// family splits, AS structure (including the dominant AS), and the
// volume/diversity statistics of the resolver-side traces.
func runSection4(cfg Config) (*Report, error) {
	s, scanRes := behaviorStudy(cfg)
	rep := &Report{ID: "section4", Title: "Dataset summaries"}
	sc := cfg.Scale

	// --- CDN dataset ---
	logs := passive.GroupByResolver(s.CDNLogs.All())
	ecsSet := passive.ECSResolverSet(logs)
	v4, v6 := 0, 0
	asOf := map[int]int{} // AS number → ECS resolver count
	for addr := range ecsSet {
		if addr.Is4() {
			v4++
		} else {
			v6++
		}
		if as, ok := s.World.ASOf(addr); ok {
			asOf[as.Number]++
		}
	}
	dominant := 0
	for _, n := range asOf {
		if n > dominant {
			dominant = n
		}
	}
	t := &report.Table{Title: "CDN dataset (one simulated day)", Headers: []string{"statistic", "paper", "measured"}}
	t.AddRow("ECS-enabled non-whitelisted resolvers", scaled(4147, sc), len(ecsSet))
	t.AddRow("IPv4 resolver addresses", scaled(4002, sc), v4)
	t.AddRow("IPv6 resolver addresses", scaled(145, sc), v6)
	t.AddRow("resolvers in the dominant AS", scaled(3067, sc), dominant)
	rep.Tables = append(rep.Tables, t)
	rep.AddMetric("CDN: ECS resolvers", 4147*sc, float64(len(ecsSet)), "resolvers")
	rep.AddMetric("CDN: IPv6 share", 145.0/4147, float64(v6)/float64(max(1, len(ecsSet))), "fraction")
	rep.AddMetric("CDN: dominant-AS share", 3067.0/4147, float64(dominant)/float64(max(1, len(ecsSet))), "fraction")

	// --- Scan dataset ---
	countries := map[string]bool{}
	ingressASes := map[int]bool{}
	ecsIngress := 0
	for _, ing := range scanRes.Responding {
		if loc, ok := s.World.Locate(ing); ok {
			countries[loc.Country] = true
		}
		if as, ok := s.World.ASOf(ing); ok {
			ingressASes[as.Number] = true
		}
		for _, eg := range scanRes.IngressToEgress[ing] {
			if scanRes.ECSEgress[eg] {
				ecsIngress++
				break
			}
		}
	}
	t2 := &report.Table{Title: "Scan dataset", Headers: []string{"statistic", "paper", "measured"}}
	t2.AddRow("open ingress resolvers", scaled(27430, sc*0.1), len(scanRes.Responding))
	t2.AddRow("ingresses using ECS egresses", scaled(15300, sc*0.1), ecsIngress)
	t2.AddRow("ECS egress resolver addresses", scaled(1534, sc), len(scanRes.ECSEgress))
	t2.AddRow("ingress countries", "195 (43 in the catalog)", len(countries))
	t2.AddRow("ingress ASes", "7.9K at full scale", len(ingressASes))
	rep.Tables = append(rep.Tables, t2)
	rep.AddMetric("scan: ECS egress addresses", 1534*sc, float64(len(scanRes.ECSEgress)), "resolvers")
	rep.AddMetric("scan: fraction of ingresses on ECS egresses", 15.3/27.43,
		float64(ecsIngress)/float64(max(1, len(scanRes.Responding))), "fraction")

	// --- All-Names resolver dataset ---
	an := traces.GenerateAllNames(allNamesConfig(cfg))
	names := map[string]bool{}
	slds := map[string]bool{}
	subsV4 := map[netip.Addr]bool{}
	subsV6 := map[netip.Addr]bool{}
	for _, r := range an.Records {
		names[string(r.Name)] = true
		slds[string(r.Name.SLD())] = true
	}
	clientsV4, clientsV6 := 0, 0
	for _, c := range an.Clients {
		if c.Is4() {
			clientsV4++
			p, _ := c.Prefix(24)
			subsV4[p.Addr()] = true
		} else {
			clientsV6++
			p, _ := c.Prefix(48)
			subsV6[p.Addr()] = true
		}
	}
	t3 := &report.Table{Title: "All-Names resolver dataset (1/40 scale)", Headers: []string{"statistic", "paper", "measured"}}
	t3.AddRow("A/AAAA interactions", 11100000/40, len(an.Records))
	t3.AddRow("client IP addresses", 76200/40, len(an.Clients))
	t3.AddRow("IPv4 clients", 37400/40, clientsV4)
	t3.AddRow("IPv6 clients", 38800/40, clientsV6)
	t3.AddRow("/24 IPv4 client subnets", 12300/40, len(subsV4))
	t3.AddRow("/48 IPv6 client subnets", 2800/40, len(subsV6))
	t3.AddRow("unique hostnames", 134925/40, len(names))
	t3.AddRow("unique SLDs", 19014/40, len(slds))
	rep.Tables = append(rep.Tables, t3)
	rep.AddMetric("all-names: v6 client share", 38800.0/76200,
		float64(clientsV6)/float64(max(1, len(an.Clients))), "fraction")

	rep.Notes = append(rep.Notes,
		"dataset shapes (family splits, AS concentration, client subnet diversity) match §4; absolute counts are the configured scale of the paper's datasets")
	return rep, nil
}
