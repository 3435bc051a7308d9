// Command ecsbench is the repository's one benchmark. It builds
// cmd/authdns, cmd/recursor and cmd/ecsscan from the tree, drives those
// real binaries over loopback sockets with four named workloads, checks
// every answer, and reports every metric of BENCHMARK.json by name.
//
// Run it through bench/run.sh, which keeps the Go build cache inside the
// checkout:
//
//	bash bench/run.sh                        the whole suite, all metrics
//	bash bench/run.sh -aa 10                 ten suites; medians, spread, fit to bound
//	bash bench/run.sh -smoke                 1 s per workload: checks the harness itself
//	bash bench/run.sh --workload serve-hot --seed 7 --seconds 12 --trace 0
//
// The last form is the driver's: one workload, and as the last line of
// standard output one JSON object with the end-to-end metrics (--trace 0)
// or the per-layer metrics (--trace 1). See README.md.
//
// This package imports only the standard library and speaks DNS with its
// own stub (package stub). Everything that needs the module's internal
// packages lives in bench/layers, behind the ecsbench build tag, and is
// run as a subprocess.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"ecsdns/bench/stub"
)

// rounds is how many times a run sets the system up and measures it;
// each reported figure is the median over the rounds.
const rounds = 3

// sizing is how much work one run of one workload does.
type sizing struct {
	rounds      int
	window      time.Duration // per round: system slices and the reference slices between them
	scanTargets int           // per scan of a scan-bulk window
	layerCall   time.Duration // per timed function in bench/layers
	replica     time.Duration // per traced or untraced replica window
}

func sizeFor(seconds float64, smoke bool) sizing {
	if smoke {
		return sizing{1, time.Second, 5000, 20 * time.Millisecond, 300 * time.Millisecond}
	}
	return sizing{
		rounds:      rounds,
		window:      time.Duration(seconds / rounds * float64(time.Second)),
		scanTargets: stub.ScanTargets,
		// About half a run for the ~25 timed functions, a sixth for each
		// replica window: at 60 s every function gets more than 1 s.
		layerCall: time.Duration(seconds / 50 * float64(time.Second)),
		replica:   time.Duration(seconds / 6 * float64(time.Second)),
	}
}

type options struct {
	ref      string
	root     string
	workload string
	seed     int64
	seconds  float64
	trace    int
	aa       int
	smoke    bool
}

func main() {
	var o options
	flag.StringVar(&o.ref, "ref", "", "internal: be the reference responder on this address (the harness spawns itself so)")
	flag.StringVar(&o.root, "root", "", "the checkout: the directory that holds BENCHMARK.json (bench/run.sh passes it)")
	flag.StringVar(&o.workload, "workload", "", "run one workload and print the driver's JSON line (default: the whole suite)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 12, "measurement time per workload")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	flag.IntVar(&o.aa, "aa", 2, "suite mode: run the suite this many times and compare the sets")
	flag.BoolVar(&o.smoke, "smoke", false, "suite mode: one short round per workload, to check the harness itself")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if o.ref != "" {
		fatal(stub.ServeRef(o.ref))
	}
	// Harness, reference and programs under test all run on one CPU; this
	// returns only in the re-executed, pinned harness.
	if err := pinToOneCPU(); err != nil {
		fatal(err)
	}

	// Children die with the harness on every path: fatal() reaps, a
	// signal reaps, and a kill is covered by Pdeathsig in spawn.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fatal(fmt.Errorf("interrupted"))
	}()

	if err := run(o); err != nil {
		fatal(err)
	}
	reapAll()
}

func fatal(err error) {
	reapAll()
	fmt.Fprintln(os.Stderr, "ecsbench:", err)
	os.Exit(1)
}

func run(o options) error {
	if o.root == "" {
		return fmt.Errorf("-root is required (bench/run.sh passes it)")
	}
	spec, err := loadSpec(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	env, err := prepare(o.root)
	if err != nil {
		return err
	}
	if o.workload != "" {
		return runDriver(o, spec, env)
	}
	return runSuite(o, spec, env)
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the harness reads: it is the
// one place metric names, units and bounds are written down.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runDriver is the driver's contract: one workload, one JSON line.
func runDriver(o options, spec *benchSpec, env *environment) error {
	w, ok := stub.ByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	size := sizeFor(o.seconds, false)
	want := spec.EndToEnd
	if o.trace == 1 {
		// The per-process rows need one real-binary round; set-up time is
		// not among them, so there is nothing to take a median of.
		size.rounds = 1
		want = spec.PerLayer
	}
	res, err := runWorkload(env, w, o.seed, size)
	if err != nil {
		return err
	}
	values := res.values()
	var layers layerReport
	if o.trace == 1 {
		layers = runLayers(env, w.Name, o.seed, size, true)
		layers.addTo(values)
		if layers.Error != "" {
			fmt.Fprintln(os.Stderr, "ecsbench: layer rows are null:", layers.Error)
		}
	}
	res.print(os.Stderr)

	type value struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, map[string]value{}}
	for _, m := range want {
		v, ok := values[m.Name]
		if !ok && layers.Error == "" {
			return fmt.Errorf("BENCHMARK.json lists %s, which the harness does not produce", m.Name)
		}
		line.Metrics[m.Name] = value{v, m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !line.Correct {
		return fmt.Errorf("%s: %d of %d queries failed, or a validity check was violated", w.Name, res.failed, res.attempted)
	}
	return nil
}
