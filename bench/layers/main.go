//go:build ecsbench

// Command layers is the half of the benchmark that imports the module's
// internal packages: it times each layer's exported functions from
// outside and runs the traced in-process replica of a workload's chain.
// The harness builds it with -tags ecsbench and runs it as a subprocess,
// so when an internal API changes and this no longer compiles, the
// end-to-end rows are untouched and these rows read null.
//
// It prints one JSON object: {"metrics": {name: value}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"ecsdns/bench/stub"
)

func main() {
	workload := flag.String("workload", "", "workload whose chain the traced replica runs")
	seed := flag.Int64("seed", 1, "workload seed")
	window := flag.Duration("replica", 2*time.Second, "length of each replica window (untraced, then traced)")
	call := flag.Duration("call", 0, "time given to each timed function (0 = no layer rows, replica only)")
	traceOut := flag.String("trace-out", "", "file the traced run's spans are written to")
	flag.Parse()

	w, ok := stub.ByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "layers: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	metrics := replica(w, *seed, *window, *traceOut)
	if *call > 0 {
		for name, v := range micro(*call) {
			metrics[name] = v
		}
	}
	out, err := json.Marshal(map[string]any{"metrics": metrics})
	must(err)
	fmt.Println(string(out))
}
