// Package core is the paper's reproduction harness: one Experiment per
// table, figure, and quantitative section finding, each running the full
// simulated ecosystem and producing the rows/series the paper reports
// next to the paper's own numbers.
package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ecsdns/internal/report"
)

// Config controls an experiment run.
type Config struct {
	// Scale sizes populations and trace volumes relative to the paper's
	// datasets (1.0 = paper scale). The defaults keep every experiment
	// in seconds on a laptop.
	Scale float64
	// Seed drives every random choice; identical configs produce
	// identical reports.
	Seed int64
	// Faults, when non-empty, is a netem.ParseFaultPlan spec (e.g.
	// "loss=0.05,latency=20ms") applied globally to the study network,
	// so every experiment can be rerun under degraded conditions. The
	// fault RNG is seeded from Seed: identical configs still produce
	// identical reports. An invalid spec panics in BuildStudy; validate
	// with netem.ParseFaultPlan first when the spec is user input.
	Faults string
}

// DefaultConfig is the scale the test suite and benchmarks run at.
func DefaultConfig() Config {
	return Config{Scale: 0.1, Seed: 1}
}

// Metric is one headline number: what the paper reports next to what we
// measured. Paper is NaN for a number the paper does not give, which
// prints as "—".
type Metric struct {
	Name     string
	Paper    float64
	Measured float64
	Unit     string
}

// Report is an experiment's output.
type Report struct {
	ID      string
	Title   string
	Tables  []*report.Table
	Metrics []Metric
	Notes   []string
}

// noPaper is the paper value of a metric the paper gives no number for.
var noPaper = math.NaN()

// AddMetric appends a headline comparison.
func (r *Report) AddMetric(name string, paper, measured float64, unit string) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Paper: paper, Measured: measured, Unit: unit})
}

// String renders the full report.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s — %s ==\n", r.ID, r.Title)
	if len(r.Metrics) > 0 {
		t := &report.Table{Headers: []string{"metric", "paper", "measured", "unit"}}
		for _, m := range r.Metrics {
			var paper any = m.Paper
			if math.IsNaN(m.Paper) {
				paper = "—"
			}
			t.AddRow(m.Name, paper, m.Measured, m.Unit)
		}
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	for _, t := range r.Tables {
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	for _, n := range r.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	return sb.String()
}

// Experiment reproduces one paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) (*Report, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("core: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every experiment, sorted by id.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// IDs returns the registered experiment ids.
func IDs() []string {
	all := All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	return ids
}
