package flatten

import (
	"testing"
	"time"
)

func TestFlatteningPenalty(t *testing.T) {
	res, err := Run(DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	// The flattened apex maps to an edge near the DNS provider
	// (Washington), far from the Sydney client; www maps nearby.
	if res.E1 == res.E2 {
		t.Fatalf("apex and www mapped to the same edge %s", res.E1)
	}
	if res.E1RTT <= 2*res.E2RTT {
		t.Fatalf("E1 RTT %v not clearly worse than E2 RTT %v", res.E1RTT, res.E2RTT)
	}
	// The paper measured a 650 ms total apex access vs a www-only
	// access; the penalty must be substantial (hundreds of ms).
	if res.Penalty < 200*time.Millisecond {
		t.Fatalf("penalty = %v, want ≥ 200 ms", res.Penalty)
	}
	if res.ApexTotal <= res.DirectTotal {
		t.Fatal("apex access not slower than direct access")
	}
	if len(res.Steps) != 4 {
		t.Fatalf("steps = %d", len(res.Steps))
	}
	for i := 1; i < len(res.Steps); i++ {
		if res.Steps[i].Elapsed <= res.Steps[i-1].Elapsed {
			t.Fatal("timeline not monotone")
		}
	}
	// Each HTTP leg is a handshake plus one request: exactly two round
	// trips to its edge.
	if d := res.Steps[1].Elapsed - res.Steps[0].Elapsed; d != 2*res.E1RTT {
		t.Fatalf("HTTP to E1 took %v, want 2 round trips of %v", d, res.E1RTT)
	}
	if d := res.Steps[3].Elapsed - res.Steps[2].Elapsed; d != 2*res.E2RTT {
		t.Fatalf("HTTP to E2 took %v, want 2 round trips of %v", d, res.E2RTT)
	}
}

func TestPassECSMitigation(t *testing.T) {
	base, err := Run(DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig
	cfg.PassECSOnFlatten = true
	fixed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With ECS passed on the backend leg, the apex maps near the client
	// too: E1 RTT collapses and the penalty shrinks.
	if fixed.E1RTT >= base.E1RTT {
		t.Fatalf("mitigated E1 RTT %v not better than %v", fixed.E1RTT, base.E1RTT)
	}
	if fixed.E1RTT > 2*fixed.E2RTT {
		t.Fatalf("mitigated E1 RTT %v still far from E2 RTT %v", fixed.E1RTT, fixed.E2RTT)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	if a.E1 != b.E1 || a.E2 != b.E2 || a.Penalty != b.Penalty {
		t.Fatal("experiment not deterministic")
	}
}
