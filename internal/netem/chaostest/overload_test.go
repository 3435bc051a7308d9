package chaostest

import (
	"sync"
	"testing"
	"time"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnsserver"
	"ecsdns/internal/dnswire"
)

// overloadFactor is the offered-load multiple: 10× capacity.
const overloadFactor = 10

// overloadMatrix is the serving-layer overload matrix: the same flood
// under each overflow policy, through a handler with and without an
// immediate path.
func overloadMatrix() []OverloadScenario {
	return []OverloadScenario{
		{Name: "flood-drop", MaxInflight: 8, FloodFactor: overloadFactor, Overflow: dnsserver.OverflowDrop},
		{Name: "flood-servfail", MaxInflight: 8, FloodFactor: overloadFactor, Overflow: dnsserver.OverflowServFail},
		{Name: "flood-drop-immediate", MaxInflight: 8, FloodFactor: overloadFactor, Overflow: dnsserver.OverflowDrop, Immediate: true},
		{Name: "flood-servfail-immediate", MaxInflight: 8, FloodFactor: overloadFactor, Overflow: dnsserver.OverflowServFail, Immediate: true},
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
			flood -= sc.hotFlood(flood)
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

// TestBlockingSinkNeverStallsTheReadLoop serves the authority with a
// query-log sink that blocks, as a daemon's per-query writes to a
// stalled stdout do, behind a server with one worker and a one-slot
// queue. The authority declines every query to a worker while a sink is
// installed, so the query held in the sink occupies that worker, not the
// read loop: the loop goes on reading and sheds the overflow with
// SERVFAIL meanwhile. Once the sink is removed the authority answers on
// the read loop again.
func TestBlockingSinkNeverStallsTheReadLoop(t *testing.T) {
	auth := authority.NewServer(authority.Config{})
	z := authority.NewZone(overloadZone, 30)
	z.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: chaosAnswer})
	auth.AddZone(z)
	hold := make(chan struct{})
	auth.SetLog(func(authority.LogRecord) { <-hold })
	srv := dnsserver.New(auth)
	srv.MaxInflight = 1
	srv.Overflow = dnsserver.OverflowServFail
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var release sync.Once
	// Close waits for the worker the sink holds, so the sink goes first.
	t.Cleanup(func() {
		release.Do(func() { close(hold) })
		srv.Close()
	})
	conn := dialOverload(t, bound.String())

	sendOverloadQuery(t, conn, 1, "held.") // held in the sink, on the one worker
	waitServer(t, srv, "the first query held", func(st dnsserver.ServerStats) bool { return st.Inflight == 1 })
	sendOverloadQuery(t, conn, 2, "queued.") // the one queue slot
	waitServer(t, srv, "the second query queued", func(st dnsserver.ServerStats) bool { return st.Received == 2 })
	sendOverloadQuery(t, conn, 3, "overflow.")
	if msg, ok := readOverloadReply(t, conn, 2*time.Second); !ok || msg.ID != 3 || msg.RCode != dnswire.RCodeServFail {
		t.Fatalf("the overflow query: %v (ok=%v), want a SERVFAIL shed from the read loop; server %s", msg, ok, srv.Stats())
	}

	release.Do(func() { close(hold) })
	expectAnswer(t, "sink", conn, 1)
	expectAnswer(t, "sink", conn, 2)
	if st := srv.Stats(); st.Immediate != 0 || st.Answered != 2 || st.Shed != 1 {
		t.Fatalf("with a sink: %s, want 2 answered by workers and 1 shed", st)
	}

	auth.SetLog(nil)
	sendOverloadQuery(t, conn, 4, "after.")
	expectAnswer(t, "no sink", conn, 4)
	if st := srv.Stats(); st.Immediate != 1 {
		t.Fatalf("without a sink: %s, want the query answered on the read loop", st)
	}
}
