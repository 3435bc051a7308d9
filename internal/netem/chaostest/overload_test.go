package chaostest

import (
	"testing"

	"ecsdns/internal/dnsserver"
)

// overloadFactor is the offered-load multiple: 10× capacity.
const overloadFactor = 10

// overloadMatrix is the serving-layer overload matrix: the same flood
// under each overflow policy.
func overloadMatrix() []OverloadScenario {
	return []OverloadScenario{
		{Name: "flood-drop", MaxInflight: 8, FloodFactor: overloadFactor, Overflow: dnsserver.OverflowDrop},
		{Name: "flood-servfail", MaxInflight: 8, FloodFactor: overloadFactor, Overflow: dnsserver.OverflowServFail},
	}
}

// TestOverloadFloodMatrix floods the real-socket server at 8× its
// admission capacity with panicking queries mixed in; RunOverload
// asserts the exact shed/panic/answer accounting, the graceful drain,
// and the goroutine baseline internally. The per-policy check here pins
// what the flood's clients observe.
func TestOverloadFloodMatrix(t *testing.T) {
	for _, sc := range overloadMatrix() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			r := RunOverload(t, sc)
			flood := (sc.FloodFactor - 2) * sc.MaxInflight
			switch sc.Overflow {
			case dnsserver.OverflowServFail:
				if r.FloodRefusals != flood {
					t.Errorf("%d of %d flood clients got an explicit refusal", r.FloodRefusals, flood)
				}
			case dnsserver.OverflowDrop:
				if r.FloodRefusals != 0 {
					t.Errorf("drop policy produced %d refusals", r.FloodRefusals)
				}
			}
		})
	}
}

// TestOverloadDeterminism replays a flood scenario and demands identical
// final accounting: the phases are sequenced against the server's own
// counters, so the outcome is a function of the scenario, not of
// scheduling.
func TestOverloadDeterminism(t *testing.T) {
	sc := OverloadScenario{Name: "flood-replay", MaxInflight: 8, FloodFactor: overloadFactor,
		Overflow: dnsserver.OverflowServFail}
	a := RunOverload(t, sc)
	b := RunOverload(t, sc)
	if a != b {
		t.Fatalf("overload runs diverged:\n run1: %+v\n run2: %+v", a, b)
	}
}

// TestRRLStormExact drives the paced RRL storm; RunRRLStorm asserts the
// exact burst/drop/slip/refill trace and the TCP escape valve
// internally.
func TestRRLStormExact(t *testing.T) {
	st := RunRRLStorm(t)
	if st.Slipped != 5 {
		t.Errorf("storm slipped %d, want the seeded 5", st.Slipped)
	}
}
