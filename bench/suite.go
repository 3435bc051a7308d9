package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"ecsdns/bench/stub"
)

// suiteReport is what suite mode leaves in bench/out/ecsbench.json.
// Units and bounds are BENCHMARK.json's.
type suiteReport struct {
	Link      string                         `json:"link"`
	Load      string                         `json:"load"`
	Seed      int64                          `json:"seed"`
	Seconds   float64                        `json:"seconds"`
	Sets      int                            `json:"sets"`
	EndToEnd  map[string]map[string]*aaRow   `json:"end_to_end"` // workload -> metric
	PerLayer  map[string]map[string]*float64 `json:"per_layer"`  // workload -> metric
	Samples   map[string]int                 `json:"latency_samples"`
	Checks    []check                        `json:"checks"`
	Failures  map[string]map[string]int      `json:"failures,omitempty"`
	LayerErrs map[string]string              `json:"layer_errors,omitempty"`
}

// aaRow is one end-to-end metric of one workload over the suite's sets.
type aaRow struct {
	Values []float64 `json:"values"` // one per set, each a median over rounds
	Median float64   `json:"median"`
	Spread float64   `json:"spread"` // inter-quartile range (of two sets: their difference) over the median
	Fits   bool      `json:"fits_bound"`
}

// runSuite runs every workload, -aa times over, then the layer rows and
// the traced replicas, and prints every metric by name with its unit.
func runSuite(o options, spec *benchSpec, env *environment) error {
	size := sizeFor(o.seconds, o.smoke)
	sets := max(o.aa, 1)
	if o.smoke {
		sets = 1
	}
	rep := suiteReport{
		Link:      "host loopback, not a real link",
		Load:      fmt.Sprintf("everything on one CPU; closed loop, %d stub client with one query outstanding; ecsscan keeps %d probes in flight; rates and times scaled to a machine whose loopback echo makes %.0f round trips a second", stub.Clients, scanInFlight, stub.RefNominal),
		Seed:      o.seed,
		Seconds:   o.seconds,
		Sets:      sets,
		EndToEnd:  map[string]map[string]*aaRow{},
		PerLayer:  map[string]map[string]*float64{},
		Samples:   map[string]int{},
		Failures:  map[string]map[string]int{},
		LayerErrs: map[string]string{},
	}

	correct := true
	last := map[string]*result{}
	for set := 0; set < sets; set++ {
		// Each set starts one workload further on, so no workload always
		// runs after the same neighbour.
		for i := range stub.Workloads {
			w := stub.Workloads[(i+set)%len(stub.Workloads)]
			res, err := runWorkload(env, w, o.seed+int64(set), size)
			if err != nil {
				return err
			}
			fmt.Printf("\nset %d of %d", set+1, sets)
			res.print(os.Stdout)
			correct = correct && res.correct()
			last[w.Name] = res
			rep.Checks = append(rep.Checks, res.checks...)
			rep.Samples[w.Name] = res.samples()
			if len(res.failures) > 0 {
				rep.Failures[w.Name] = res.failures
			}
			if rep.EndToEnd[w.Name] == nil {
				rep.EndToEnd[w.Name] = map[string]*aaRow{}
			}
			values := res.values()
			for _, m := range spec.EndToEnd {
				row := rep.EndToEnd[w.Name][m.Name]
				if row == nil {
					row = &aaRow{}
					rep.EndToEnd[w.Name][m.Name] = row
				}
				row.Values = append(row.Values, *values[m.Name])
			}
		}
	}

	// A traced replica per workload; the layer rows, which do not depend
	// on the workload, are measured once and shown under each.
	micro := layerReport{Metrics: map[string]float64{}}
	for i, w := range stub.Workloads {
		layers := runLayers(env, w.Name, o.seed, size, i == 0)
		if layers.Error != "" {
			rep.LayerErrs[w.Name] = layers.Error
		}
		if i == 0 {
			for name, v := range layers.Metrics {
				if !strings.HasPrefix(name, "trace.") {
					micro.Metrics[name] = v
				}
			}
		}
		values := last[w.Name].values()
		micro.addTo(values)
		layers.addTo(values)
		rep.PerLayer[w.Name] = map[string]*float64{}
		for _, m := range spec.PerLayer {
			rep.PerLayer[w.Name][m.Name] = values[m.Name]
		}
	}

	fmt.Printf("\n== end to end: median over %d sets (each the median of %d rounds), spread = IQR/median (two sets: difference/median) ==\n", sets, size.rounds)
	fmt.Printf("%-13s %-18s %14s %-6s %8s %8s  %s\n", "workload", "metric", "median", "unit", "bound", "spread", "fits")
	fits := true
	for _, w := range stub.Workloads {
		for _, m := range spec.EndToEnd {
			row := rep.EndToEnd[w.Name][m.Name]
			row.Median, row.Spread = stub.Median(row.Values), stub.Spread(row.Values)
			if len(row.Values) == 2 {
				// Two sets have no quartiles; they agree or differ by this much.
				row.Spread = math.Abs(row.Values[0]-row.Values[1]) / row.Median
			}
			row.Fits = row.Spread <= m.Bound
			// Like the driver, set-up time is gated on its median only.
			fits = fits && (row.Fits || m.Name == "setup_s")
			fmt.Printf("%-13s %-18s %14.3f %-6s %7.0f%% %7.1f%%  %v\n", w.Name, m.Name, row.Median, m.Unit, m.Bound*100, row.Spread*100, row.Fits)
		}
		fmt.Printf("%-13s %-18s %14d %-6s\n", w.Name, "latency samples", rep.Samples[w.Name], "count")
	}

	fmt.Printf("\n== per layer (null: bench/layers could not produce the row) ==\n")
	fmt.Printf("%-34s %-8s", "metric", "unit")
	for _, w := range stub.Workloads {
		fmt.Printf(" %14s", w.Name)
	}
	fmt.Println()
	for _, m := range spec.PerLayer {
		fmt.Printf("%-34s %-8s", m.Name, m.Unit)
		for _, w := range stub.Workloads {
			if v := rep.PerLayer[w.Name][m.Name]; v != nil {
				fmt.Printf(" %14.3f", *v)
			} else {
				fmt.Printf(" %14s", "null")
			}
		}
		fmt.Println()
	}
	for w, msg := range rep.LayerErrs {
		fmt.Printf("\nlayer rows of %s are null: %s\n", w, strings.TrimSpace(msg))
	}

	fmt.Printf("\n== validity ==\n")
	for _, c := range rep.Checks {
		fmt.Printf("%-10s %s: %s\n", c.Status, c.Name, c.Detail)
	}
	fmt.Printf("traffic: %s; %s\n", rep.Link, rep.Load)

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(env.outDir, "ecsbench.json")
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	switch {
	case !correct:
		return fmt.Errorf("a query failed or a validity check was violated")
	case sets > 1 && !fits:
		return fmt.Errorf("the sets disagree by more than a metric's bound")
	}
	return nil
}

// addTo merges the layer rows into a workload's values and derives the
// replica-to-real ratio, the one row that needs both sides.
func (l layerReport) addTo(values map[string]*float64) {
	for name, v := range l.Metrics {
		values[name] = &v
	}
	if replica, ok := l.Metrics["trace.replica_p50_us"]; ok {
		ratio := replica / *values["stub.raw_p50_us"]
		values["trace.replica_p50_ratio"] = &ratio
	}
}
