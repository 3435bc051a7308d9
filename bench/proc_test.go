package main

import (
	"math"
	"testing"
	"time"

	"ecsdns/bench/stub"
)

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	stat := "4242 (auth dns) (x)) S 1 4242 4242 0 -1 4194560 1203 0 0 0 731 269 0 0 20 0 9 0 8805 1268920320 2781 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 10 * time.Second; got != want { // (731+269) ticks at 100 Hz
		t.Errorf("cpu = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 a b 13"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) accepted", bad)
		}
	}
}

func TestParseStatusHWM(t *testing.T) {
	status := "Name:\trecursor\nVmPeak:\t 1239180 kB\nVmHWM:\t   18432 kB\nVmRSS:\t   11124 kB\n"
	got, err := parseStatusHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if got != 18 {
		t.Errorf("VmHWM = %v MiB, want 18", got)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 pages\n", "VmHWM:\tmany kB\n"} {
		if _, err := parseStatusHWM(bad); err == nil {
			t.Errorf("parseStatusHWM(%q) accepted", bad)
		}
	}
}

func TestExitLineCounters(t *testing.T) {
	exit := "2026/09/27 20:40:46 authdns: shutting down (draining up to 5s)\n" +
		"2026/09/27 20:40:46 authdns: received=20000 answered=19990 shed=10 (rrl-dropped=0) slipped=0 malformed=0 panics=0 conns=0/0 (rejected=0)\n"
	for key, want := range map[string]int64{"received": 20000, "shed": 10, "answered": 19990} {
		if got, ok := counter(exit, key); !ok || got != want {
			t.Errorf("counter(%s) = %d, %v; want %d", key, got, ok, want)
		}
	}
	if _, ok := counter("authdns: serving", "received"); ok {
		t.Error("a missing counter must read as absent, so the check is unverified rather than passed")
	}
	summary := "\n20000 targets: 20000 responding, 0 unreachable in 418ms (47885 q/s; 20003 udp sent, 3 retries, 0 tcp fallbacks)"
	if got, ok := summaryCounter(summary, " udp sent"); !ok || got != 20003 {
		t.Errorf("udp sent = %d, %v", got, ok)
	}
	if got, ok := summaryCounter(summary, " retries"); !ok || got != 3 {
		t.Errorf("retries = %d, %v", got, ok)
	}
}

// A machine running at half the nominal speed halves every rate and
// doubles every time; the end-to-end rows must read as on the nominal
// machine, and the raw rows as measured.
func TestValuesAreScaledToTheNominalMachine(t *testing.T) {
	half := stub.RefNominal / 2
	r := newRound()
	r.setupS = 2
	r.cpu["recursor"] = 40 * time.Millisecond
	for i := 0; i < 3; i++ {
		r.slices = append(r.slices, slice{answers: 1000, seconds: 0.1, lat: []float64{80, 90, 100}})
		r.refs = append(r.refs, half)
	}
	res := &result{rounds: []*round{r}, failures: map[string]int{}}
	got := res.values()
	for name, want := range map[string]float64{
		"qps": 20000, "stub.raw_qps": 10000,
		"p50_us": 45, "stub.raw_p50_us": 90,
		"setup_s": 1, "harness.raw_setup_s": 2,
		"cpu_us_per_query":      40000.0 / 3000 / 2,
		"ref.round_trips_per_s": half,
	} {
		if v := *got[name]; math.Abs(v-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
}
