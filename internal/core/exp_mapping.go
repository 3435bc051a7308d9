package core

import (
	"fmt"
	"time"

	"ecsdns/internal/cdn"
	"ecsdns/internal/flatten"
	"ecsdns/internal/geo"
	"ecsdns/internal/hiddensim"
	"ecsdns/internal/mapping"
	"ecsdns/internal/report"
	"ecsdns/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "table2",
		Title: "Mapping quality with non-routable ECS prefixes (Table 2)",
		Run:   runTable2,
	})
	register(Experiment{
		ID:    "fig4",
		Title: "Hidden vs recursive resolver distances, MP resolvers (Figure 4)",
		Run:   runFig4,
	})
	register(Experiment{
		ID:    "fig5",
		Title: "Hidden vs recursive resolver distances, non-MP resolvers (Figure 5)",
		Run:   runFig5,
	})
	register(Experiment{
		ID:    "fig6",
		Title: "Mapping quality vs source prefix length, CDN-1 (Figure 6)",
		Run:   runFig6,
	})
	register(Experiment{
		ID:    "fig7",
		Title: "Mapping quality vs source prefix length, CDN-2 (Figure 7)",
		Run:   runFig7,
	})
	register(Experiment{
		ID:    "fig8",
		Title: "CNAME flattening penalty (Figure 8)",
		Run:   runFig8,
	})
}

func mappingWorld(cfg Config) *geo.Internet {
	return geo.Build(geo.Config{Seed: cfg.Seed, NumASes: 400, BlocksPerAS: 2})
}

func runTable2(cfg Config) (*Report, error) {
	w := mappingWorld(cfg)
	policy := cdn.NewGoogleLike(w)
	lab := w.AddrInCity(geo.CityIndex("Cleveland"), 0, 3)
	rows := mapping.UnroutableTable(w, policy, lab)

	rep := &Report{ID: "table2", Title: "Authoritative answers for unroutable ECS prefixes"}
	t := &report.Table{
		Title:   "Responses to queries from Cleveland (Table 2)",
		Headers: []string{"ECS prefix", "first answer", "RTT (ms)", "location"},
	}
	var baseline, worst float64
	for _, r := range rows {
		t.AddRow(r.Label, r.FirstAnswer.String(), r.RTTMillis, r.Location)
		if r.Label == "None" {
			baseline = r.RTTMillis
		}
		if r.RTTMillis > worst {
			worst = r.RTTMillis
		}
	}
	rep.Tables = append(rep.Tables, t)
	rep.AddMetric("baseline RTT (no ECS)", 35, baseline, "ms")
	rep.AddMetric("worst unroutable-prefix RTT", 285, worst, "ms")
	rep.AddMetric("worst/baseline penalty", 285.0/35, worst/baseline, "×")
	rep.Notes = append(rep.Notes,
		"unroutable ECS prefixes are taken at face value and mapped across the globe, while no-ECS and own-prefix queries map nearby, as in Table 2")
	return rep, nil
}

func hiddenReport(id, title string, combos []hiddensim.Combo, paper hiddensim.Fractions) *Report {
	f := hiddensim.Analyze(combos)
	rep := &Report{ID: id, Title: title}
	rep.AddMetric("combinations below diagonal (ECS hurts)", paper.Below*100, f.Below*100, "%")
	rep.AddMetric("combinations on diagonal (ECS no help)", paper.On*100, f.On*100, "%")
	rep.AddMetric("combinations above diagonal (ECS helps)", paper.Above*100, f.Above*100, "%")

	worst := hiddensim.WorstPenalty(combos)
	rep.AddMetric("worst hidden-resolver detour", 12000, worst.FH, "km")

	// A coarse 2-D density table stands in for the hexbin plot.
	h := hiddensim.HexbinOf(combos, 2500)
	t := &report.Table{
		Title:   "Distance scatter density (bins of 2500 km; FH vertical, FR horizontal)",
		Headers: []string{"FH\\FR", "0-2.5k", "2.5-5k", "5-7.5k", "7.5-10k", ">10k"},
	}
	cell := func(fhBin, frBin int) int {
		n := 0
		for k, c := range h.Counts {
			fh, fr := k[0], k[1]
			if fh >= 4 {
				fh = 4
			}
			if fr >= 4 {
				fr = 4
			}
			if fh == fhBin && fr == frBin {
				n += c
			}
		}
		return n
	}
	rowName := []string{"0-2.5k", "2.5-5k", "5-7.5k", "7.5-10k", ">10k"}
	for fh := 0; fh < 5; fh++ {
		row := []interface{}{rowName[fh]}
		for fr := 0; fr < 5; fr++ {
			row = append(row, cell(fh, fr))
		}
		t.AddRow(row...)
	}
	rep.Tables = append(rep.Tables, t)
	return rep
}

func runFig4(cfg Config) (*Report, error) {
	c := hiddensim.MPConfig()
	c.Seed = cfg.Seed + 40
	c.Combos = scaled(725000, cfg.Scale/10) // 1/10 of paper at Scale 1
	rep := hiddenReport("fig4", "MP resolver combinations (725K in the paper)",
		hiddensim.Generate(c), hiddensim.Fractions{Below: 0.080, On: 0.013, Above: 0.907})
	rep.Notes = append(rep.Notes,
		"in 8% of combinations the hidden resolver is farther from the forwarder than the egress resolver: ECS delivers a worse location than no ECS at all")
	return rep, nil
}

func runFig5(cfg Config) (*Report, error) {
	c := hiddensim.NonMPConfig()
	c.Seed = cfg.Seed + 50
	c.Combos = scaled(217000, cfg.Scale/10)
	rep := hiddenReport("fig5", "Non-MP resolver combinations (217K in the paper)",
		hiddensim.Generate(c), hiddensim.Fractions{Below: 0.078, On: 0.195, Above: 0.727})
	rep.Notes = append(rep.Notes,
		"the non-MP population shows the Beijing/Shanghai/Guangzhou structure: ~1000–2000 km modes and a 19.5% equidistant band")
	return rep, nil
}

func prefixSweepReport(id string, w *geo.Internet, policy *cdn.Policy, lens []int, cliffHigh, cliffLow int, cfg Config) *Report {
	fleet := mapping.NewFleet(w, scaled(800, cfg.Scale*10), cfg.Seed+60)
	lab := w.AddrInCity(geo.CityIndex("Cleveland"), 0, 3)
	pts := mapping.PrefixSweep(w, policy, fleet, lab, lens)

	rep := &Report{ID: id, Title: fmt.Sprintf("Time-to-connect by source prefix length (%s)", policy.D.Name)}
	series := map[string]*stats.CDF{}
	byLen := map[int]mapping.SweepPoint{}
	t := &report.Table{
		Title:   "Unique first answers per prefix length",
		Headers: []string{"source prefix", "unique answers", "median connect (ms)"},
	}
	for _, p := range pts {
		series[fmt.Sprintf("/%02d", p.PrefixLen)] = p.CDF()
		byLen[p.PrefixLen] = p
		t.AddRow(fmt.Sprintf("/%d", p.PrefixLen), p.UniqueFirstAnswers, stats.Median(p.ConnectMs))
	}
	rep.Tables = append(rep.Tables,
		report.SeriesTable("Connect-time distribution (ms)", "ms", series, []float64{0.25, 0.5, 0.75, 0.9}),
		t)
	rep.AddMetric(fmt.Sprintf("median connect at /%d", cliffHigh), noPaper, stats.Median(byLen[cliffHigh].ConnectMs), "ms")
	rep.AddMetric(fmt.Sprintf("median connect at /%d (below threshold)", cliffLow), noPaper, stats.Median(byLen[cliffLow].ConnectMs), "ms")
	rep.AddMetric("cliff ratio", noPaper,
		stats.Median(byLen[cliffLow].ConnectMs)/stats.Median(byLen[cliffHigh].ConnectMs), "×")
	return rep
}

func runFig6(cfg Config) (*Report, error) {
	w := mappingWorld(cfg)
	rep := prefixSweepReport("fig6", w, cdn.NewCDN1(w),
		[]int{16, 17, 18, 19, 20, 21, 22, 23, 24}, 24, 23, cfg)
	rep.Notes = append(rep.Notes,
		"CDN-1 does proximity mapping only at /24: shortening the prefix to /23 collapses the answer set to a handful of central edges and ruins latency, with no further effect from /22 down to /16 (Figure 6)")
	return rep, nil
}

func runFig7(cfg Config) (*Report, error) {
	w := mappingWorld(cfg)
	rep := prefixSweepReport("fig7", w, cdn.NewCDN2(w),
		[]int{20, 21, 22, 23, 24}, 21, 20, cfg)
	rep.Notes = append(rep.Notes,
		"CDN-2 honors ECS down to /21 with identical quality from /21 to /24; at /20 it falls back to resolver-based mapping with scope 0 (Figure 7)")
	return rep, nil
}

func runFig8(cfg Config) (*Report, error) {
	fc := flatten.DefaultConfig
	fc.Seed = cfg.Seed + 80
	res, err := flatten.Run(fc)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "fig8", Title: "CNAME flattening timeline"}
	t := &report.Table{Title: "Access timeline (Figure 8)", Headers: []string{"step", "elapsed (ms)"}}
	for _, s := range res.Steps {
		t.AddRow(s.Name, float64(s.Elapsed)/float64(time.Millisecond))
	}
	rep.Tables = append(rep.Tables, t)
	rep.AddMetric("TCP handshake to misdirected edge E1", 125, float64(res.E1RTT)/float64(time.Millisecond), "ms")
	rep.AddMetric("TCP handshake to correct edge E2", 45, float64(res.E2RTT)/float64(time.Millisecond), "ms")
	rep.AddMetric("flattening penalty (apex vs direct www)", 650, float64(res.Penalty)/float64(time.Millisecond), "ms")

	// The mitigation run.
	fc.PassECSOnFlatten = true
	fixed, err := flatten.Run(fc)
	if err != nil {
		return nil, err
	}
	saved := float64(res.Penalty-fixed.Penalty) / float64(time.Millisecond)
	rep.AddMetric("penalty removed by passing ECS on the flattened leg", noPaper, saved, "ms")
	rep.AddMetric("mitigated E1 handshake", 45, float64(fixed.E1RTT)/float64(time.Millisecond), "ms")
	rep.Notes = append(rep.Notes,
		"flattening without ECS maps the apex by the DNS provider's location, costing an HTTP redirect and a far-away first fetch; passing ECS on the backend resolution removes the penalty (§8.4)")
	return rep, nil
}
