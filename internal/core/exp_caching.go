package core

import (
	"fmt"
	"sync"
	"time"

	"ecsdns/internal/cachesim"
	"ecsdns/internal/report"
	"ecsdns/internal/stats"
	"ecsdns/internal/traces"
)

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Cache blow-up factor CDF across resolvers, TTL 20/40/60 s (Figure 1)",
		Run:   runFig1,
	})
	register(Experiment{
		ID:    "fig2",
		Title: "Cache blow-up vs client population (Figure 2)",
		Run:   runFig2,
	})
	register(Experiment{
		ID:    "fig3",
		Title: "Cache hit rate with and without ECS vs client population (Figure 3)",
		Run:   runFig3,
	})
}

func publicCDNConfig(cfg Config) traces.PublicCDNConfig {
	c := traces.DefaultPublicCDN
	c.Seed = cfg.Seed
	c.Resolvers = scaled(2370, cfg.Scale)
	return c
}

func allNamesConfig(cfg Config) traces.AllNamesConfig {
	c := traces.DefaultAllNames
	c.Seed = cfg.Seed
	return c
}

func runFig1(cfg Config) (*Report, error) {
	trs := traces.GeneratePublicCDN(publicCDNConfig(cfg))
	rep := &Report{ID: "fig1", Title: "ECS cache blow-up factor per egress resolver"}

	series := map[string]*stats.CDF{}
	var medians, maxima []float64
	for _, ttl := range []time.Duration{20 * time.Second, 40 * time.Second, 60 * time.Second} {
		var factors []float64
		for _, tr := range trs {
			factors = append(factors, cachesim.Blowup(tr.Records, ttl).Factor())
		}
		cdf := stats.NewCDF(factors)
		series[fmt.Sprintf("%d sec TTL", int(ttl.Seconds()))] = cdf
		medians = append(medians, cdf.Quantile(0.5))
		maxima = append(maxima, stats.Max(factors))
	}
	rep.Tables = append(rep.Tables,
		report.SeriesTable("Blow-up factor distribution (Figure 1)", "blow-up factor",
			series, []float64{0.10, 0.25, 0.50, 0.75, 0.90, 1.0}))

	rep.AddMetric("median blow-up, TTL 20 s", 4.0, medians[0], "×")
	rep.AddMetric("max blow-up, TTL 20 s", 15.95, maxima[0], "×")
	rep.AddMetric("max blow-up, TTL 40 s", 23.68, maxima[1], "×")
	rep.AddMetric("max blow-up, TTL 60 s", 29.85, maxima[2], "×")
	rep.Notes = append(rep.Notes,
		"half the resolvers need >4× the cache with ECS at the CDN's 20 s TTL, and the blow-up grows with TTL, as in Figure 1")
	return rep, nil
}

// sweepRow is one client fraction of Figures 2 and 3: the blow-up
// factor and the hit rates without and with ECS, each averaged over the
// fraction's client samples.
type sweepRow struct {
	frac                     int
	blowup, plainHit, ecsHit float64
}

// sweeps holds each seed's client sweep: Figures 2 and 3 read the same
// one, and it is replayed once per process. A sweep is a function of the
// seed alone, so no caller can tell whether it was computed for it.
var sweeps sync.Map // seed → *sweep

type sweep struct {
	once sync.Once
	rows []sweepRow
}

// clientSweep returns the client sweep of cfg's seed, the one field of
// cfg it reads (sweepClients), computing it the first time it is asked
// for. The rows are shared and only read.
func clientSweep(cfg Config) []sweepRow {
	v, _ := sweeps.LoadOrStore(cfg.Seed, new(sweep))
	s := v.(*sweep)
	s.once.Do(func() { s.rows = sweepClients(cfg.Seed) })
	return s.rows
}

// sweepClients replays the all-names trace of seed at 10, 20 … 100 % of
// its clients, three client samples per fraction (one at 100 %, which is
// deterministic), each sample once through Blowup.
func sweepClients(seed int64) []sweepRow {
	cfg := Config{Seed: seed}
	tr := traces.GenerateAllNames(allNamesConfig(cfg))
	var rows []sweepRow
	for frac := 10; frac <= 100; frac += 10 {
		row := sweepRow{frac: frac}
		runs := 3
		if frac == 100 {
			runs = 1
		}
		for seed := int64(0); seed < int64(runs); seed++ {
			keep := cachesim.SampleClients(tr.Clients, float64(frac)/100, cfg.Seed+seed)
			res := cachesim.Blowup(cachesim.FilterClients(tr.Records, keep), 0)
			row.blowup += res.Factor()
			row.plainHit += res.HitRate(false)
			row.ecsHit += res.HitRate(true)
		}
		row.blowup /= float64(runs)
		row.plainHit /= float64(runs)
		row.ecsHit /= float64(runs)
		rows = append(rows, row)
	}
	return rows
}

func runFig2(cfg Config) (*Report, error) {
	rep := &Report{ID: "fig2", Title: "All-names resolver cache blow-up vs client fraction"}
	t := &report.Table{
		Title:   "Blow-up factor by client fraction (Figure 2, 3-seed averages)",
		Headers: []string{"% clients", "blow-up factor"},
	}
	rows := clientSweep(cfg)
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.frac), r.blowup)
	}
	rep.Tables = append(rep.Tables, t)
	rep.AddMetric("blow-up at 100% clients", 4.3, rows[len(rows)-1].blowup, "×")
	rep.AddMetric("blow-up at 10% clients", 1.7, rows[0].blowup, "×")
	rep.Notes = append(rep.Notes,
		"the blow-up grows with the client population and does not flatten at 100%, as in Figure 2")
	return rep, nil
}

func runFig3(cfg Config) (*Report, error) {
	rep := &Report{ID: "fig3", Title: "Cache hit rate with and without ECS"}
	t := &report.Table{
		Title:   "Hit rate by client fraction (Figure 3, 3-seed averages)",
		Headers: []string{"% clients", "no ECS (%)", "with ECS (%)"},
	}
	rows := clientSweep(cfg)
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.frac), r.plainHit, r.ecsHit)
	}
	rep.Tables = append(rep.Tables, t)
	full := rows[len(rows)-1]
	rep.AddMetric("hit rate without ECS, all clients", 76, full.plainHit, "%")
	rep.AddMetric("hit rate with ECS, all clients", 30, full.ecsHit, "%")
	rep.Notes = append(rep.Notes,
		"ECS scope restrictions cut the hit rate by more than half across all client populations, as in Figure 3")
	return rep, nil
}
