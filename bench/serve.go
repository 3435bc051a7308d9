package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"ecsdns/bench/stub"
)

// binaries are the programs under test, built from the tree.
type binaries struct {
	authdns, recursor, ecsscan string
}

// check is one workload-validity check: whether the traffic did to the
// system what the workload says it does.
type check struct {
	Name   string `json:"name"`
	Status string `json:"status"` // ok, violated, unverified
	Detail string `json:"detail"`
}

// slice is one stretch of system traffic between two measurements of
// the reference.
type slice struct {
	answers int       // validated answers (or probes)
	seconds float64   // slice start to the last of them
	lat     []float64 // µs per validated answer, sorted (serve workloads)
}

// round is what one set-up + measurement window yields.
type round struct {
	setupS    float64
	slices    []slice
	refs      []float64 // reference round trips per second, measured around every slice
	attempted int       // every query of every phase
	failed    int
	failures  map[string]int           // failed, by kind
	cpu       map[string]time.Duration // CPU per process over the system slices; "stub" is the generator
	rss       map[string]float64       // VmHWM in MiB at window end
	received  int64                    // what authdns's exit line says it received
	shed      int64                    // shed by the servers' admission control
	checks    []check
}

func newRound() *round {
	return &round{failures: map[string]int{}, cpu: map[string]time.Duration{}, rss: map[string]float64{}}
}

func (r *round) fail(err error) {
	r.failed++
	r.failures[err.Error()]++
}

// answers is the number of validated answers over all slices.
func (r *round) answers() int {
	n := 0
	for _, s := range r.slices {
		n += s.answers
	}
	return n
}

// A disturbance — a neighbour on the shared host, a kernel thread that
// lands on this CPU — only ever slows a slice down, and it hits system
// and reference slices alike but not the same ones. So a rate that exists
// per slice is read where the window was least disturbed: the upper
// decile of the system slices against the upper decile of the reference
// slices. A total over the window, disturbed slices and all, is scaled by
// the median of the reference instead.

// quantile returns the q-quantile of v.
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return stub.Percentile(s, q)
}

// clean returns the q-quantile of f over the slices.
func (r *round) clean(q float64, f func(slice) float64) float64 {
	v := make([]float64, len(r.slices))
	for i, s := range r.slices {
		v[i] = f(s)
	}
	return quantile(v, q)
}

// cleanSpeed is the machine's speed where the window was least
// disturbed, as a share of the nominal machine's; speed is its speed
// over the whole window.
func (r *round) cleanSpeed() float64 { return quantile(r.refs, 0.9) / stub.RefNominal }

func (r *round) speed() float64 { return stub.Median(r.refs) / stub.RefNominal }

// window measures for d: it alternates measurements of the reference
// with slices of system traffic, which sys produces, and charges the
// generator's CPU during the system slices to "stub".
func (r *round) window(ref *stub.RefClient, d time.Duration, sys func() (slice, error)) error {
	deadline := stub.Now().Add(d)
	for {
		rate, err := ref.Rate(stub.RefSlice)
		if err != nil {
			return err
		}
		r.refs = append(r.refs, rate)
		if len(r.slices) > 0 && !stub.Now().Before(deadline) {
			return nil
		}
		cpu0, err := selfCPU()
		if err != nil {
			return err
		}
		s, err := sys()
		if err != nil {
			return err
		}
		cpu1, err := selfCPU()
		if err != nil {
			return err
		}
		r.cpu["stub"] += cpu1 - cpu0
		r.slices = append(r.slices, s)
	}
}

// ask sends the generator's next n queries (n < 0: as many as complete
// within d) and returns the validated answers as a slice.
func (r *round) ask(c *stub.Client, g *stub.Gen, scope uint8, n int, d time.Duration) slice {
	var s slice
	start := stub.Now()
	for i := 0; i != n; i++ {
		r.attempted++
		rtt, err := c.Exchange(g.Next(), scope)
		now := stub.Now()
		if n < 0 && now.Sub(start) > d {
			if err != nil {
				r.fail(err)
			}
			break // the answer that straddles the end is not counted
		}
		if err != nil {
			r.fail(err)
			continue
		}
		s.answers++
		s.seconds = now.Sub(start).Seconds()
		s.lat = append(s.lat, float64(rtt.Nanoseconds())/1e3)
	}
	sort.Float64s(s.lat)
	return s
}

// runServeRound spawns authdns and recursor, warms the cache with the
// workload's own queries and measures one window of closed-loop traffic.
func runServeRound(bins binaries, ref *stub.RefClient, w stub.Workload, seed int64, window time.Duration) (*round, error) {
	r := newRound()
	t0 := stub.Now()

	authArgs := []string{"-quiet", "-scope", w.AuthScope}
	if w.AuthTTL > 0 {
		authArgs = append(authArgs, "-ttl", strconv.Itoa(w.AuthTTL))
	}
	auth, authAddr, answered, lost, err := startServer("authdns", bins.authdns, w.Scope, authArgs...)
	if err != nil {
		return nil, err
	}
	defer auth.stop()
	recArgs := []string{"-upstream", authAddr}
	if w.Pool {
		recArgs[0] = "-upstreams"
	}
	if w.CacheEntries > 0 {
		recArgs = append(recArgs, "-cache-entries", strconv.Itoa(w.CacheEntries))
	}
	rec, recAddr, a, l, err := startServer("recursor", bins.recursor, w.Scope, recArgs...)
	if err != nil {
		return nil, err
	}
	defer rec.stop()
	// Every readiness probe is a fresh name, so each one answered reached
	// authdns once; one that was lost may or may not have.
	answered, lost = answered+a, lost+l
	r.attempted += answered + lost
	r.failed += lost

	client, err := stub.Dial(recAddr)
	if err != nil {
		return nil, err
	}
	defer client.Close()
	gen := stub.NewGen(w, seed, 0, stub.Clients)
	for _, n := range gen.WarmupSteps() {
		r.ask(client, gen, w.Scope, n, 0)
	}
	if r.failed > 0 {
		return nil, fmt.Errorf("%s: %d queries failed before the window: %v", w.Name, r.failed, r.failures)
	}

	// The servers idle through the reference slices, so their CPU over
	// the whole window is their CPU over the system slices.
	procs := map[string]*child{"authdns": auth, "recursor": rec}
	cpu0, err := readCPU(procs)
	if err != nil {
		return nil, err
	}
	r.setupS = stub.Now().Sub(t0).Seconds()
	err = r.window(ref, window, func() (slice, error) {
		return r.ask(client, gen, w.Scope, -1, stub.SysSlice), nil
	})
	if err != nil {
		return nil, err
	}
	cpu1, err := readCPU(procs)
	if err != nil {
		return nil, err
	}
	for name, c := range procs {
		if c.exited() {
			return nil, c.earlyExit()
		}
		r.cpu[name] = cpu1[name] - cpu0[name]
		if r.rss[name], err = procHWM(c.pid()); err != nil {
			return nil, err
		}
	}

	// Stop front to back and read the exit lines.
	rec.stop()
	auth.stop()
	recShed, ok1 := counter(rec.stderr.String(), "shed")
	authShed, ok2 := counter(auth.stderr.String(), "shed")
	if ok1 && ok2 {
		r.shed = recShed + authShed
	}
	r.checks = append(r.checks, r.checkReceived(w, auth, int64(answered), int64(lost)))
	return r, nil
}

// checkReceived compares what authdns says it received with what the
// workload should have sent upstream.
func (r *round) checkReceived(w stub.Workload, auth *child, ready, readyLost int64) check {
	c := check{Name: w.Name + ".authdns_received"}
	got, ok := counter(auth.stderr.String(), "received")
	if !ok {
		c.Status, c.Detail = "unverified", "authdns printed no received= counter on exit"
		return c
	}
	r.received = got
	var lo, hi int64
	switch {
	case w.Names == 0:
		// Every query is a fresh name: at least one upstream query each.
		lo, hi = int64(r.attempted), 1<<62
		c.Detail = fmt.Sprintf("received %d, stub sent %d fresh names: want >= 1.0 per query", got, r.attempted)
	case w.Zipf:
		// One upstream query per name, all of them during the warm-up.
		lo = int64(w.Names) + ready
		hi = lo + readyLost
		c.Detail = fmt.Sprintf("received %d, want %d (one per name + %d readiness probes): zero misses in the window", got, lo, ready)
	default:
		lo = int64(w.Names*w.Subnets) + ready
		hi = lo + readyLost
		c.Detail = fmt.Sprintf("received %d, want %d (the prefill + %d readiness probes): zero misses in the window", got, lo, ready)
	}
	c.Status = "ok"
	if got < lo || got > hi {
		c.Status = "violated"
	}
	return c
}

// readCPU reads the CPU time of each process.
func readCPU(procs map[string]*child) (map[string]time.Duration, error) {
	out := make(map[string]time.Duration, len(procs))
	var err error
	for name, c := range procs {
		if out[name], err = procCPU(c.pid()); err != nil {
			if c.exited() {
				return nil, c.earlyExit()
			}
			return nil, err
		}
	}
	return out, nil
}

// counter finds the last "key=<digits>" in a process's output.
func counter(text, key string) (int64, bool) {
	i := strings.LastIndex(text, key+"=")
	if i < 0 {
		return 0, false
	}
	rest := text[i+len(key)+1:]
	end := 0
	for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
		end++
	}
	n, err := strconv.ParseInt(rest[:end], 10, 64)
	return n, err == nil
}
