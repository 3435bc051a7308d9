// Package ecsdns is a full reproduction of "A Look at the ECS Behavior
// of DNS Resolvers" (Al-Dalky, Rabinovich, Schomp — IMC 2019) as a Go
// library: a DNS wire stack with EDNS0 Client Subnet, an ECS-complete
// recursive resolver with every compliant and deviant behavior class the
// paper observes, authoritative/CDN server models, active-scan and
// passive-log measurement tooling, and one executable experiment per
// table and figure in the paper's evaluation.
//
// This root package is the facade: it re-exports the experiment
// registry. The building blocks live under internal/ (see DESIGN.md for
// the package map); the runnable entry points are cmd/ecslab (all
// experiments), cmd/authdns, cmd/recursor and cmd/ecsscan (real-socket
// tools), and the examples/ directory.
package ecsdns

import (
	"fmt"

	"ecsdns/internal/core"
)

// Config controls experiment scale and seeding; see core.Config.
type Config = core.Config

// Report is an experiment result; see core.Report.
type Report = core.Report

// Metric is a paper-vs-measured comparison; see core.Metric.
type Metric = core.Metric

// DefaultConfig returns the scale the test suite and benchmarks use.
func DefaultConfig() Config { return core.DefaultConfig() }

// Experiments lists the registered experiment ids (one per paper table,
// figure, and quantitative section finding).
func Experiments() []string { return core.IDs() }

// Run executes one experiment by id ("table1", "fig3", …). A panicking
// experiment is isolated and reported as an error, so one buggy
// experiment cannot take down a batch run (cmd/ecslab keeps going).
func Run(id string, cfg Config) (*Report, error) {
	e, ok := core.Get(id)
	if !ok {
		return nil, fmt.Errorf("ecsdns: unknown experiment %q (have %v)", id, core.IDs())
	}
	return runIsolated(e, cfg)
}

func runIsolated(e core.Experiment, cfg Config) (rep *Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, fmt.Errorf("ecsdns: experiment %s panicked: %v", e.ID, r)
		}
	}()
	return e.Run(cfg)
}
