// Command ecslab runs the paper-reproduction experiments: one per table,
// figure, and quantitative section finding of "A Look at the ECS
// Behavior of DNS Resolvers" (IMC 2019).
//
// Usage:
//
//	ecslab [-scale 0.1] [-seed 1] [-faults spec] <experiment-id>... | all | list
//
// Experiment ids: table1 table2 fig1..fig8 section5 section6_1
// section6_3.
package main

import (
	"flag"
	"fmt"
	"os"

	"ecsdns"
	"ecsdns/internal/netem"
)

func main() {
	scale := flag.Float64("scale", 0.1, "population/volume scale relative to the paper's datasets")
	seed := flag.Int64("seed", 1, "random seed (same seed ⇒ identical reports)")
	faults := flag.String("faults", "", `fault-injection spec applied to the study network, e.g. "loss=0.05,latency=20ms,servfail=0.1" (see netem.ParseFaultPlan)`)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ecslab [flags] <experiment>... | all | list\n\nexperiments:\n")
		for _, id := range ecsdns.Experiments() {
			fmt.Fprintf(os.Stderr, "  %s\n", id)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *scale <= 0 {
		fmt.Fprintf(os.Stderr, "ecslab: -scale must be positive, got %v\n", *scale)
		os.Exit(2)
	}
	if _, err := netem.ParseFaultPlan(*faults); err != nil {
		fmt.Fprintf(os.Stderr, "ecslab: -faults: %v\n", err)
		os.Exit(2)
	}
	cfg := ecsdns.Config{Scale: *scale, Seed: *seed, Faults: *faults}

	args := flag.Args()
	if len(args) == 1 && args[0] == "list" {
		for _, id := range ecsdns.Experiments() {
			fmt.Println(id)
		}
		return
	}
	if len(args) == 1 && args[0] == "all" {
		args = ecsdns.Experiments()
	}
	failed := false
	for _, id := range args {
		rep, err := ecsdns.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ecslab: %s: %v\n", id, err)
			failed = true
			continue
		}
		fmt.Println(rep)
	}
	if failed {
		os.Exit(1)
	}
}
