package chaostest

import (
	"reflect"
	"testing"
	"time"

	"ecsdns/internal/netem"
	"ecsdns/internal/upstreams"
)

// TestChaosBlackoutFailover blacks out one of three mirrors for the
// whole chaos phase: the pool must keep the answer rate at ≥99% by
// failing over, with zero accounting leaks.
func TestChaosBlackoutFailover(t *testing.T) {
	dark := netem.Window{Start: netem.SimStart, End: netem.SimStart.Add(time.Hour)}
	res := RunFailover(t, FailoverScenario{
		Name: "blackout-failover", Seed: 11, Queries: 100,
		MirrorFaults: []netem.FaultPlan{{Blackouts: []netem.Window{dark}}},
	})
	if res.Answered < 99 {
		t.Fatalf("answered %d/%d with one mirror dark; want >= 99", res.Answered, res.Queries)
	}
	if res.Counters.Failovers == 0 {
		t.Fatalf("blackout produced no failovers: %+v", res.Counters)
	}
	// The dark mirror must not silently keep absorbing attempts: either
	// its breaker gated it, or health scoring steered picks away — in
	// both cases failures stay bounded well below the query count.
	if res.Counters.Failed > int64(res.Queries)/2 {
		t.Fatalf("dark mirror kept absorbing attempts: %+v", res.Counters)
	}
}

// TestChaosHedgeUnderLoss runs the same 50%-loss storm twice with the
// same seed — hedging off, then on — and requires the hedged tail
// (p99 of the pool's modeled completion times) to be strictly faster.
// A lost attempt costs a full loss timeout, so racing a second
// upstream after the adaptive delay must cut the tail.
func TestChaosHedgeUnderLoss(t *testing.T) {
	// The breaker is off so the comparison is pure hedging: with it on,
	// breaker refusals cap the cost of total-failure queries the same
	// way in both runs and flatten the tails together.
	base := FailoverScenario{
		Name: "hedge-under-loss", Seed: 21, Queries: 200,
		GlobalFaults:   netem.FaultPlan{Loss: 0.5},
		DisableBreaker: true,
	}
	unhedged := RunFailover(t, base)

	hedged := base
	hedged.Name = "hedge-under-loss-hedged"
	hedged.Hedge = true
	hw := RunFailover(t, hedged)

	if hw.Counters.Hedges == 0 {
		t.Fatalf("50%% loss never triggered a hedge: %+v", hw.Counters)
	}
	p99u := DurationPercentile(unhedged.Durations, 0.99)
	p99h := DurationPercentile(hw.Durations, 0.99)
	t.Logf("p99 unhedged=%v hedged=%v (p50 %v vs %v; hedges=%d)",
		p99u, p99h, DurationPercentile(unhedged.Durations, 0.50),
		DurationPercentile(hw.Durations, 0.50), hw.Counters.Hedges)
	if p99h >= p99u {
		t.Fatalf("hedging did not cut the tail: p99 hedged=%v >= unhedged=%v", p99h, p99u)
	}
	if hw.Answered < unhedged.Answered {
		t.Fatalf("hedging lost answers: %d < %d", hw.Answered, unhedged.Answered)
	}
}

// TestChaosFragmentationStorm inflates every response past the
// fragmentation threshold and drops a share of the resulting
// fragments: the pool must walk the payload ladder (frag-lost at 4096,
// truncated below the inflated size at 1232) down to TCP, where size
// faults cannot reach, and recover every answer.
func TestChaosFragmentationStorm(t *testing.T) {
	res := RunFailover(t, FailoverScenario{
		Name: "fragmentation-storm", Seed: 31, Queries: 100,
		GlobalFaults: netem.FaultPlan{Payload: 2000, FragLoss: 0.4},
	})
	if res.Answered < 99 {
		t.Fatalf("answered %d/%d under fragmentation storm; want >= 99", res.Answered, res.Queries)
	}
	if res.Counters.LadderSteps == 0 || res.Counters.TCPFallbacks == 0 {
		t.Fatalf("storm never drove the ladder to TCP: %+v", res.Counters)
	}
	if res.Stats.SizeTruncated == 0 {
		t.Fatalf("no response was size-truncated: %+v", res.Stats)
	}
	if res.Stats.FragDrops == 0 {
		t.Fatalf("no fragment was dropped: %+v", res.Stats)
	}
}

// flappingScenario pins the flapping mirror into its own priority tier
// so the pool keeps coming back to it: the breaker — not health
// steering — must be what sheds the load, and it must recover once the
// mirror comes back. The run (200 queries 200ms apart) outlasts the
// 15s blackout and the breaker's 30s open window.
func flappingScenario() FailoverScenario {
	dark := netem.Window{Start: netem.SimStart, End: netem.SimStart.Add(15 * time.Second)}
	return FailoverScenario{
		Name: "flapping-upstream", Seed: 41, Queries: 200,
		QueryGap:     200 * time.Millisecond,
		MirrorFaults: []netem.FaultPlan{{Blackouts: []netem.Window{dark}}},
		Priorities:   []int{0, 1, 1},
	}
}

// TestChaosFlappingUpstream drives the full breaker lifecycle under a
// flapping mirror and then replays the identical scenario, requiring
// transition traces, durations, and counters to match exactly — the
// replay-identity guarantee that makes chaos failures debuggable.
func TestChaosFlappingUpstream(t *testing.T) {
	res := RunFailover(t, flappingScenario())
	if res.Answered < res.Queries-1 {
		t.Fatalf("answered %d/%d under flapping mirror; want >= 99", res.Answered, res.Queries)
	}
	if res.Counters.BreakerTrips == 0 {
		t.Fatalf("flapping mirror never tripped its breaker: %+v", res.Counters)
	}
	var opened, closedAgain bool
	for _, tr := range res.Trace {
		if tr.Upstream != res.Mirrors[0] {
			continue
		}
		if tr.To == upstreams.Open {
			opened = true
		}
		if opened && tr.To == upstreams.Closed {
			closedAgain = true
		}
	}
	if !opened || !closedAgain {
		t.Fatalf("breaker lifecycle incomplete (opened=%v recovered=%v): %v", opened, closedAgain, res.Trace)
	}

	// Replay: the same scenario must reproduce the exact same trace.
	replay := RunFailover(t, flappingScenario())
	if !reflect.DeepEqual(res.Trace, replay.Trace) {
		t.Fatalf("breaker trace not replay-identical:\n run 1: %v\n run 2: %v", res.Trace, replay.Trace)
	}
	if !reflect.DeepEqual(res.Durations, replay.Durations) {
		t.Fatal("modeled durations not replay-identical")
	}
	if res.Counters != replay.Counters {
		t.Fatalf("counters not replay-identical:\n run 1: %+v\n run 2: %+v", res.Counters, replay.Counters)
	}
}
