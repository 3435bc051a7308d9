package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"ecsdns/bench/stub"
)

// scanInFlight is ecsscan's default -concurrency: the number of probes
// its engine keeps in flight.
const scanInFlight = 64

// result is one workload's run: every round, and what they add up to.
type result struct {
	workload  stub.Workload
	rounds    []*round
	buildS    float64
	attempted int
	failed    int
	failures  map[string]int
	checks    []check
}

// runWorkload runs the workload's rounds against the real binaries.
func runWorkload(env *environment, w stub.Workload, seed int64, size sizing) (*result, error) {
	res := &result{workload: w, buildS: env.buildS, failures: map[string]int{}}
	refProc, ref, err := startRef()
	if err != nil {
		return nil, err
	}
	defer refProc.stop()
	defer ref.Close()
	for i := 0; i < size.rounds; i++ {
		var r *round
		if w.Scan {
			r, err = runScanRound(env.bins, ref, env.workDir, size.scanTargets, size.window)
		} else {
			// Each round is a fresh pair of processes and gets its own
			// slice of the seed's input space.
			r, err = runServeRound(env.bins, ref, w, seed*int64(rounds)+int64(i), size.window)
		}
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.Name, i+1, err)
		}
		res.rounds = append(res.rounds, r)
		res.attempted += r.attempted
		res.failed += r.failed
		for k, n := range r.failures {
			res.failures[k] += n
		}
		res.checks = append(res.checks, r.checks...)
	}
	return res, nil
}

// correct reports whether every answer validated and no validity check
// was violated. An unverified check does not fail the run; it is shown.
func (res *result) correct() bool {
	for _, c := range res.checks {
		if c.Status == "violated" {
			return false
		}
	}
	return res.failed == 0
}

// samples is the number of latency samples behind the percentiles.
func (res *result) samples() int {
	n := 0
	for _, r := range res.rounds {
		for _, s := range r.slices {
			n += len(s.lat)
		}
	}
	return n
}

// over applies f to each round and returns the median.
func (res *result) over(f func(*round) float64) float64 {
	v := make([]float64, len(res.rounds))
	for i, r := range res.rounds {
		v[i] = f(r)
	}
	return stub.Median(v)
}

// us is the CPU the named processes used per answer, in µs.
func us(r *round, procs ...string) float64 {
	var total float64
	for _, p := range procs {
		total += float64(r.cpu[p].Microseconds())
	}
	return total / float64(r.answers())
}

// rate is a slice's answers per second.
func rate(s slice) float64 { return float64(s.answers) / s.seconds }

// rawQPS is a round's answers per second over its system slices.
func rawQPS(r *round) float64 {
	var seconds float64
	for _, s := range r.slices {
		seconds += s.seconds
	}
	return float64(r.answers()) / seconds
}

// latencies is every latency sample of the round, sorted.
func latencies(r *round) []float64 {
	var all []float64
	for _, s := range r.slices {
		all = append(all, s.lat...)
	}
	sort.Float64s(all)
	return all
}

// values computes every metric the harness itself measures: the
// end-to-end rows and the per-process rows. Each is the median over the
// rounds. The end-to-end times and rates are scaled to the nominal
// machine (see stub.RefNominal): a rate is divided and a time multiplied
// by the machine's speed as the reference measured it in the same
// window. The raw readings are per-layer rows. A nil value prints as
// null.
func (res *result) values() map[string]*float64 {
	out := map[string]*float64{}
	set := func(name string, v float64) { out[name] = &v }
	qps := func(r *round) float64 { return r.clean(0.9, rate) / r.cleanSpeed() }
	sut := []string{"recursor", "authdns"}
	if res.workload.Scan {
		sut = []string{"ecsscan", "authdns"}
	}

	set("qps", res.over(qps))
	set("cpu_us_per_query", res.over(func(r *round) float64 { return us(r, sut...) * r.speed() }))
	set("rss_mb", res.over(func(r *round) float64 { return r.rss[sut[0]] + r.rss[sut[1]] }))
	set("setup_s", res.over(func(r *round) float64 { return r.setupS * r.speed() }))
	set("ref.round_trips_per_s", res.over(func(r *round) float64 { return r.speed() * stub.RefNominal }))
	set("stub.raw_qps", res.over(rawQPS))
	set("harness.raw_setup_s", res.over(func(r *round) float64 { return r.setupS }))
	if res.workload.Scan {
		// ecsscan reports per-probe time only rounded to a millisecond,
		// so the latency rows are Little's law on what is observable: the
		// probes in flight over the probe rate, for the median scan and,
		// as the tail, for the slowest.
		set("p50_us", res.over(func(r *round) float64 { return scanInFlight / qps(r) * 1e6 }))
		set("stub.raw_p50_us", res.over(func(r *round) float64 { return scanInFlight / rawQPS(r) * 1e6 }))
		worst := 0.0
		for _, r := range res.rounds {
			for _, s := range r.slices {
				worst = max(worst, scanInFlight/rate(s)*1e6)
			}
		}
		set("stub.p99_us", worst)
		set("stub.p999_us", worst)
	} else {
		set("p50_us", res.over(func(r *round) float64 {
			return r.clean(0.1, func(s slice) float64 { return stub.Percentile(s.lat, 0.5) }) * r.cleanSpeed()
		}))
		for name, q := range map[string]float64{"stub.raw_p50_us": 0.5, "stub.p99_us": 0.99, "stub.p999_us": 0.999} {
			set(name, res.over(func(r *round) float64 { return stub.Percentile(latencies(r), q) }))
		}
	}

	for _, p := range []string{"recursor", "authdns", "ecsscan"} {
		unit := ".cpu_us_per_query"
		if p == "ecsscan" {
			unit = ".cpu_us_per_probe"
		}
		set(p+unit, res.over(func(r *round) float64 { return us(r, p) }))
		set(p+".rss_mb", res.over(func(r *round) float64 { return r.rss[p] }))
	}
	set("stub.cpu_us_per_query", res.over(func(r *round) float64 { return us(r, "stub") }))
	set("stub.timeouts", float64(res.failures[stub.ErrTimeout.Error()]))
	set("authdns.received_per_query", res.over(func(r *round) float64 { return float64(r.received) / float64(r.attempted) }))
	set("dnsserver.shed", res.over(func(r *round) float64 { return float64(r.shed) }))
	set("harness.build_s", res.buildS)
	return out
}

// print writes the run as a table a person can read.
func (res *result) print(w io.Writer) {
	fmt.Fprintf(w, "\n%s: %d rounds, %d queries attempted, %d failed, %d latency samples\n",
		res.workload.Name, len(res.rounds), res.attempted, res.failed, res.samples())
	for kind, n := range res.failures {
		fmt.Fprintf(w, "  failed %d: %s\n", n, kind)
	}
	for _, c := range res.checks {
		fmt.Fprintf(w, "  check %-9s %s: %s\n", c.Status, c.Name, c.Detail)
	}
	for i, r := range res.rounds {
		fmt.Fprintf(w, "  round %d: setup %.3f s, %d answers in %d slices (%.0f/s), %d us CPU under test, reference %.0f/s (%.2f of nominal)\n",
			i+1, r.setupS, r.answers(), len(r.slices), rawQPS(r),
			(r.cpu["recursor"] + r.cpu["authdns"] + r.cpu["ecsscan"]).Microseconds(), r.speed()*stub.RefNominal, r.speed())
	}
	values := res.values()
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		// End-to-end rows (no module prefix) first.
		if di, dj := strings.Contains(names[i], "."), strings.Contains(names[j], "."); di != dj {
			return dj
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		fmt.Fprintf(w, "  %-28s %14.3f\n", name, *values[name])
	}
}
