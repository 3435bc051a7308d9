package dnsserver

// Overload chaos: real-socket flood scenarios against the serving
// layer. A UDP flood at a multiple of the admission capacity, with
// panicking queries mixed in, must be shed with the configured policy
// and exact counts; handler panics are isolated into counted SERVFAILs;
// ServerStats balances once quiesced; a graceful drain answers what it
// admitted; and no goroutine leaks.
//
// The phases are sequenced against the server's own counters (wedge all
// workers, fill the admission queue, then flood), which makes the shed
// count an exact function of the scenario. The server reads its socket
// on one loop, so the sequence it reads in is the sequence the counters
// show.

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnsclient"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/netem"
)

// overloadZone is the wildcard zone the overload rig serves, answering
// overloadAnswer.
const overloadZone = "overload.chaos.example."

var overloadAnswer = netip.MustParseAddr("192.0.2.80")

// overloadFactor is the offered-load multiple: 10× capacity.
const overloadFactor = 10

// overloadScenario is one serving-layer overload configuration.
type overloadScenario struct {
	name string
	// maxInflight is the server's UDP worker-pool size. factor is the
	// offered load as a multiple of it: maxInflight queries wedge the
	// workers, maxInflight fill the admission queue, and the remaining
	// (factor−2)×maxInflight are the flood that must be shed.
	maxInflight, factor int
	overflow            OverflowPolicy
	// immediate gives the handler an immediate path: names under "hot."
	// are answered on the read loop, and every third flood query, from
	// the second, asks for one. Those are answered while the queue is
	// full, never shed.
	immediate bool
}

// hotFlood is how many of a flood of n queries ask for "hot." names.
func (sc overloadScenario) hotFlood(n int) int {
	if !sc.immediate {
		return 0
	}
	return (n + 1) / 3 // i%3 == 1 for i < n
}

// overloadMatrix is the same flood under each overflow policy, through a
// handler with and without an immediate path.
func overloadMatrix() []overloadScenario {
	return []overloadScenario{
		{name: "flood-drop", maxInflight: 8, factor: overloadFactor, overflow: OverflowDrop},
		{name: "flood-servfail", maxInflight: 8, factor: overloadFactor, overflow: OverflowServFail},
		{name: "flood-drop-immediate", maxInflight: 8, factor: overloadFactor, overflow: OverflowDrop, immediate: true},
		{name: "flood-servfail-immediate", maxInflight: 8, factor: overloadFactor, overflow: OverflowServFail, immediate: true},
	}
}

// overloadRun is the outcome of one runOverload execution: with the
// phases sequenced against the server's counters, every field is an
// exact function of the scenario.
type overloadRun struct {
	// stats is the server's accounting after the graceful drain.
	stats ServerStats
	// floodRefusals counts flood clients that got an explicit SERVFAIL
	// (OverflowServFail) rather than silence (OverflowDrop).
	floodRefusals int
}

// overloadHandler wraps the authority behind two injected faults: names
// under "boom." panic (the hostile-flow case) and names under "slow."
// block on the current gate (how the rig wedges workers and holds
// queries in flight across a drain).
type overloadHandler struct {
	inner Handler
	mu    sync.Mutex
	// gate is installed by rearm and closed, once, by release.
	gate chan struct{}
}

func (h *overloadHandler) currentGate() <-chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.gate
}

// release opens the current gate; rearm installs a fresh closed one for
// the next hold.
func (h *overloadHandler) release() {
	h.mu.Lock()
	defer h.mu.Unlock()
	close(h.gate)
}

func (h *overloadHandler) rearm() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.gate = make(chan struct{})
}

func (h *overloadHandler) HandleDNS(from netip.Addr, q *dnswire.Message) *dnswire.Message {
	h.faults(q)
	return h.inner.HandleDNS(from, q)
}

// faults injects the handler's faults for q's name.
func (h *overloadHandler) faults(q *dnswire.Message) {
	if len(q.Questions) == 1 {
		name := string(q.Questions[0].Name)
		switch {
		case strings.HasPrefix(name, "boom."):
			panic(fmt.Sprintf("chaos: injected handler fault for %s", name))
		case strings.HasPrefix(name, "slow."):
			<-h.currentGate()
		}
	}
}

// immediateHandler is overloadHandler with an immediate path: names
// under "hot." are answered on the read loop by the authority's
// ServeDNS, and every other name is declined to a worker, where the
// faults apply before the authority answers.
type immediateHandler struct {
	*overloadHandler
	now FillHandler
}

func (h immediateHandler) ServeDNS(from netip.Addr, q, resp *dnswire.Message, mayWait bool) bool {
	if !mayWait {
		if len(q.Questions) != 1 || !strings.HasPrefix(string(q.Questions[0].Name), "hot.") {
			return false
		}
		return h.now.ServeDNS(from, q, resp, false)
	}
	h.faults(q)
	return h.now.ServeDNS(from, q, resp, true)
}

// overloadRig starts the real-socket server: an authority wildcard zone
// on a frozen virtual clock behind the fault-injecting handler, with an
// immediate path when immediate is set. The clock is returned so RRL
// scenarios can advance virtual time between paced sends.
func overloadRig(t *testing.T, immediate bool, configure func(*Server)) (*overloadHandler, *Server, string, *netem.Clock) {
	t.Helper()
	clk := netem.NewClock(netem.SimStart)
	auth := authority.NewServer(authority.Config{
		ECSEnabled: true, Scope: authority.ScopeFixed(24), Now: clk.Now,
	})
	z := authority.NewZone(overloadZone, 30)
	z.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: overloadAnswer})
	auth.AddZone(z)
	h := &overloadHandler{inner: auth, gate: make(chan struct{})}
	var served Handler = h
	if immediate {
		served = immediateHandler{h, auth}
	}
	srv := New(served)
	srv.Now = clk.Now
	configure(srv)
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return h, srv, bound.String(), clk
}

// overloadQuery packs one A query for a name under the rig zone.
func overloadQuery(t *testing.T, id uint16, prefix string) []byte {
	t.Helper()
	return packQuery(t, id, dnswire.MustParseName(prefix+overloadZone))
}

func sendOverloadQuery(t *testing.T, conn net.Conn, id uint16, prefix string) {
	t.Helper()
	if _, err := conn.Write(overloadQuery(t, id, prefix)); err != nil {
		t.Fatalf("send query %d: %v", id, err)
	}
}

// expectAnswer requires a NoError reply carrying the rig's wildcard
// answer for the given transaction.
func expectAnswer(t *testing.T, scenario string, conn net.Conn, id uint16) {
	t.Helper()
	msg, ok := udpRead(t, conn, 2*time.Second)
	if !ok {
		t.Fatalf("%s: query %d got no answer", scenario, id)
	}
	if msg.ID != id || msg.RCode != dnswire.RCodeNoError || len(msg.Answers) != 1 {
		t.Fatalf("%s: query %d: bad reply %v", scenario, id, msg)
	}
	if a, ok := msg.Answers[0].Data.(*dnswire.ARData); !ok || a.Addr != overloadAnswer {
		t.Fatalf("%s: query %d: wrong answer %v", scenario, id, msg.Answers[0])
	}
}

// runOverload executes one overload scenario end to end:
//
//  1. wedge — maxInflight "slow." queries occupy every pool worker;
//  2. fill — maxInflight more queries (half "boom.") fill the admission
//     queue behind them;
//  3. flood — (factor−2)×maxInflight concurrent queries arrive at a full
//     queue, so every one must be shed per the overflow policy, but for
//     the "hot." ones an immediate scenario answers at once;
//  4. release — the gate opens, the admitted queries drain (panics
//     isolated into SERVFAILs), and every client's reply is checked;
//  5. aftermath — a fresh query is answered normally, then a graceful
//     Shutdown drains a re-wedged in-flight query before returning.
//
// Because each phase waits for the server's counters before the next
// begins, the final accounting is exact, not a bound.
func runOverload(t *testing.T, sc overloadScenario) overloadRun {
	t.Helper()
	m, factor := sc.maxInflight, sc.factor
	flood := (factor - 2) * m
	hot := sc.hotFlood(flood)
	shed := flood - hot
	fillBoom := m / 2
	before := runtime.NumGoroutine()

	h, srv, addr, _ := overloadRig(t, sc.immediate, func(s *Server) {
		s.MaxInflight = m
		s.Overflow = sc.overflow
	})

	// Phase 1: wedge every worker on the gate.
	wedge := make([]net.Conn, m)
	for i := range wedge {
		wedge[i] = udpDial(t, addr)
		sendOverloadQuery(t, wedge[i], uint16(1+i), fmt.Sprintf("slow.w%03d.", i))
	}
	waitStat(t, srv, "all workers wedged", func(st ServerStats) bool {
		return st.Inflight == int64(m)
	})

	// Phase 2: fill the admission queue behind them; the first half are
	// panic queries, so the panic path runs under full load.
	fill := make([]net.Conn, m)
	for i := range fill {
		fill[i] = udpDial(t, addr)
		prefix := fmt.Sprintf("fill.f%03d.", i)
		if i < fillBoom {
			prefix = fmt.Sprintf("boom.f%03d.", i)
		}
		sendOverloadQuery(t, fill[i], uint16(101+i), prefix)
	}
	waitStat(t, srv, "admission queue filled", func(st ServerStats) bool {
		return st.Received == int64(2*m)
	})

	// Phase 3: the flood. Workers wedged, queue full: every datagram the
	// read loop takes must be shed, so Shed is exact. Panic names are
	// mixed in — a shed panic query must never reach the handler — and
	// so, in an immediate scenario, are hot names, answered on the loop.
	floodConns := make([]net.Conn, flood)
	floodPkts := make([][]byte, flood)
	for i := range floodConns {
		floodConns[i] = udpDial(t, addr)
		prefix := fmt.Sprintf("flood.x%03d.", i)
		switch {
		case i%3 == 0:
			prefix = fmt.Sprintf("boom.x%03d.", i)
		case i%3 == 1 && sc.immediate:
			prefix = fmt.Sprintf("hot.x%03d.", i)
		}
		floodPkts[i] = overloadQuery(t, uint16(1001+i), prefix)
	}
	var senders sync.WaitGroup
	for i := range floodConns {
		senders.Add(1)
		go func() {
			defer senders.Done()
			if _, err := floodConns[i].Write(floodPkts[i]); err != nil {
				t.Errorf("%s: flood send %d: %v", sc.name, i, err)
			}
		}()
	}
	senders.Wait()
	// The read loop counts a datagram received before it counts it shed
	// or answered, so waiting on Received alone can read Shed one short.
	waitStat(t, srv, "flood read off the wire and shed", func(st ServerStats) bool {
		return st.Received == int64(factor*m) && st.Shed >= int64(shed) && st.Immediate >= int64(hot)
	})
	if st := srv.Stats(); st.Shed != int64(shed) {
		t.Errorf("%s: shed %d of %d flood queries at a full queue", sc.name, st.Shed, shed)
	}

	// Phase 4: open the gate; the admitted 2m queries drain — wedged and
	// fill answers go out, fill panics become counted SERVFAILs.
	h.release()
	waitStat(t, srv, "admitted queries drained", func(st ServerStats) bool {
		return st.Inflight == 0 && st.Answered+st.Panics == int64(2*m+hot)
	})
	for i, conn := range wedge {
		expectAnswer(t, sc.name, conn, uint16(1+i))
	}
	for i, conn := range fill {
		id := uint16(101 + i)
		msg, ok := udpRead(t, conn, 2*time.Second)
		if !ok {
			t.Fatalf("%s: fill query %d got no reply", sc.name, id)
		}
		if i < fillBoom {
			if msg.ID != id || msg.RCode != dnswire.RCodeServFail {
				t.Fatalf("%s: panic query %d: want SERVFAIL, got %v", sc.name, id, msg)
			}
		} else if msg.ID != id || msg.RCode != dnswire.RCodeNoError {
			t.Fatalf("%s: fill query %d: bad reply %v", sc.name, id, msg)
		}
	}

	// Flood clients see the overflow policy: an explicit SERVFAIL under
	// OverflowServFail, silence under OverflowDrop. The refusals are
	// already in the client socket buffers, so the drop case only
	// spot-checks a few sockets to keep the silence timeouts bounded.
	// Hot clients have their answers.
	refusals, silent := 0, 0
	for i, conn := range floodConns {
		id := uint16(1001 + i)
		switch {
		case sc.immediate && i%3 == 1:
			expectAnswer(t, sc.name, conn, id)
		case sc.overflow == OverflowServFail:
			msg, ok := udpRead(t, conn, 2*time.Second)
			if !ok || msg.ID != id || msg.RCode != dnswire.RCodeServFail {
				t.Fatalf("%s: flood query %d: want SERVFAIL refusal, got %v (ok=%v)", sc.name, id, msg, ok)
			}
			refusals++
		case sc.overflow == OverflowDrop && silent < 3:
			if msg, ok := udpRead(t, conn, 100*time.Millisecond); ok {
				t.Fatalf("%s: dropped flood query got a reply: %v", sc.name, msg)
			}
			silent++
		}
	}

	// Phase 5: aftermath. A fresh query is served normally once the
	// flood subsides…
	legit := udpDial(t, addr)
	sendOverloadQuery(t, legit, 7001, "aftermath.")
	expectAnswer(t, sc.name, legit, 7001)

	// …and a graceful drain still answers what it admitted: re-wedge one
	// query, Shutdown concurrently, release, and the answer must arrive
	// with Shutdown returning nil well inside its deadline.
	h.rearm()
	drain := udpDial(t, addr)
	sendOverloadQuery(t, drain, 7002, "slow.drain.")
	waitStat(t, srv, "drain query in flight", func(st ServerStats) bool {
		// Received too: the aftermath query's worker lowers Inflight only
		// after its reply is on the wire, so Inflight alone can read 1
		// while the drain query still sits unread in the socket buffer.
		return st.Inflight == 1 && st.Received == int64(factor*m+2)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(ctx) }()
	h.release()
	if err := <-done; err != nil {
		t.Fatalf("%s: graceful drain missed its deadline: %v", sc.name, err)
	}
	expectAnswer(t, sc.name, drain, 7002)

	// Final accounting: exact, and balanced.
	st := srv.Stats()
	total := factor*m + 2 // + aftermath + drain query
	if err := st.Check(); err != nil {
		t.Errorf("%s: %v", sc.name, err)
	}
	if st.Received != int64(total) {
		t.Errorf("%s: received %d, want %d", sc.name, st.Received, total)
	}
	if want := int64(2*m - fillBoom + 2 + hot); st.Answered != want {
		t.Errorf("%s: answered %d, want %d", sc.name, st.Answered, want)
	}
	if st.Immediate != int64(hot) {
		t.Errorf("%s: immediate %d, want %d", sc.name, st.Immediate, hot)
	}
	if st.Shed != int64(shed) {
		t.Errorf("%s: shed %d, want %d", sc.name, st.Shed, shed)
	}
	if st.Panics != int64(fillBoom) {
		t.Errorf("%s: panics %d, want %d", sc.name, st.Panics, fillBoom)
	}
	if st.Slipped != 0 || st.RRLDropped != 0 || st.Malformed != 0 {
		t.Errorf("%s: unexpected outcome classes: %s", sc.name, st)
	}
	waitBaseline(t, before)
	return overloadRun{stats: st, floodRefusals: refusals}
}

// TestOverloadFloodMatrix floods the real-socket server at 8× its
// admission capacity with panicking queries mixed in; runOverload
// asserts the exact shed/panic/answer accounting, the graceful drain,
// and the goroutine baseline. The per-policy check here pins what the
// flood's clients observe.
func TestOverloadFloodMatrix(t *testing.T) {
	for _, sc := range overloadMatrix() {
		t.Run(sc.name, func(t *testing.T) {
			r := runOverload(t, sc)
			flood := (sc.factor - 2) * sc.maxInflight
			flood -= sc.hotFlood(flood)
			switch sc.overflow {
			case OverflowServFail:
				if r.floodRefusals != flood {
					t.Errorf("%d of %d flood clients got an explicit refusal", r.floodRefusals, flood)
				}
			case OverflowDrop:
				if r.floodRefusals != 0 {
					t.Errorf("drop policy produced %d refusals", r.floodRefusals)
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
	sc := overloadScenario{name: "flood-replay", maxInflight: 8, factor: overloadFactor, overflow: OverflowServFail}
	a := runOverload(t, sc)
	b := runOverload(t, sc)
	if a != b {
		t.Fatalf("overload runs diverged:\n run1: %+v\n run2: %+v", a, b)
	}
}

// TestRRLStormExact drives a response-rate-limited server with a paced
// storm from one client prefix under the frozen virtual clock and
// asserts the exact seeded expectation: the burst answers, then
// refusals alternate drop / slip(TC=1) on the limiter's cadence; a
// refill after virtual time passes restores exactly rate×Δt answers; and
// TCP — the escape valve the slips advertise — is never limited. Each
// send is sequenced against the previous outcome (a reply, or the drop
// counter moving), so the storm's trace is deterministic down to each
// counter.
func TestRRLStormExact(t *testing.T) {
	const name = "rrl-storm"
	before := runtime.NumGoroutine()
	_, srv, addr, clk := overloadRig(t, false, func(s *Server) {
		s.MaxInflight = 1
		s.RRL = 2 // a burst of 2, refilled at 2 per second
	})
	client := udpDial(t, addr)

	// step sends one query and requires the exact limiter outcome;
	// drops are confirmed by the RRLDropped counter advancing (a silent
	// outcome the client cannot observe).
	step := func(id uint16, want string, wantDropped int64) {
		t.Helper()
		sendOverloadQuery(t, client, id, fmt.Sprintf("storm.q%03d.", id))
		switch want {
		case "answer":
			expectAnswer(t, name, client, id)
		case "slip":
			msg, ok := udpRead(t, client, 2*time.Second)
			if !ok {
				t.Fatalf("%s: query %d: expected a TC slip, got silence", name, id)
			}
			if msg.ID != id || !msg.Truncated || len(msg.Answers) != 0 {
				t.Fatalf("%s: query %d: want empty TC=1 slip, got %v", name, id, msg)
			}
		case "drop":
			waitStat(t, srv, fmt.Sprintf("drop of query %d", id), func(st ServerStats) bool {
				return st.RRLDropped == wantDropped
			})
		}
	}

	// Burst of 2 answers, then refusals alternate drop, slip, … —
	// refused counts 1..10, slipping on every even refusal.
	step(1, "answer", 0)
	step(2, "answer", 0)
	dropped := int64(0)
	for i := 0; i < 5; i++ {
		dropped++
		step(uint16(3+2*i), "drop", dropped)
		step(uint16(4+2*i), "slip", dropped)
	}
	// One second of virtual time refills two tokens — exactly two more
	// answers, and the next refusal keeps the cadence phase.
	clk.Advance(time.Second)
	step(13, "answer", dropped)
	step(14, "answer", dropped)
	dropped++
	step(15, "drop", dropped)

	// The slip's advertised escape valve: the same client over TCP is
	// answered immediately, rate limit or not.
	tcp := &dnsclient.Client{Timeout: 2 * time.Second, ForceTCP: true}
	msg, err := tcp.Exchange(addr, dnswire.NewQuery(16, dnswire.MustParseName("storm.tcp."+overloadZone), dnswire.TypeA))
	if err != nil || msg.ID != 16 || msg.RCode != dnswire.RCodeNoError || len(msg.Answers) != 1 {
		t.Fatalf("%s: TCP escape query: bad reply %v (%v)", name, msg, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("%s: drain: %v", name, err)
	}

	st := srv.Stats()
	if err := st.Check(); err != nil {
		t.Errorf("%s: %v", name, err)
	}
	// 15 UDP + 1 TCP received; 4 UDP + 1 TCP answered; 5 slips; 6 drops.
	if st.Received != 16 || st.Answered != 5 || st.Slipped != 5 ||
		st.RRLDropped != 6 || st.Shed != 6 || st.Malformed != 0 || st.Panics != 0 {
		t.Errorf("%s: counters off the seeded expectation: %s", name, st)
	}
	waitBaseline(t, before)
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
	z.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: overloadAnswer})
	auth.AddZone(z)
	hold := make(chan struct{})
	auth.SetLog(func(authority.LogRecord) { <-hold })
	srv := New(auth)
	srv.MaxInflight = 1
	srv.Overflow = OverflowServFail
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
	conn := udpDial(t, bound.String())

	sendOverloadQuery(t, conn, 1, "held.") // held in the sink, on the one worker
	waitStat(t, srv, "the first query held", func(st ServerStats) bool { return st.Inflight == 1 })
	sendOverloadQuery(t, conn, 2, "queued.") // the one queue slot
	waitStat(t, srv, "the second query queued", func(st ServerStats) bool { return st.Received == 2 })
	sendOverloadQuery(t, conn, 3, "overflow.")
	if msg, ok := udpRead(t, conn, 2*time.Second); !ok || msg.ID != 3 || msg.RCode != dnswire.RCodeServFail {
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
