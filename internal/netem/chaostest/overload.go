// Overload chaos: real-socket flood scenarios against the dnsserver
// serving layer. Where chaostest.go injects faults into the fabric
// *under* the resolver, this file injects overload and handler faults
// into the serving path itself — a UDP flood at a multiple of the
// admission capacity with panicking queries mixed in — and asserts the
// overload invariants: the server sheds with the configured policy and
// exact counts, handler panics are isolated into counted SERVFAILs,
// ServerStats balances once quiesced, a graceful drain answers what it
// admitted, and no goroutines leak.
//
// The phases are sequenced against the server's own counters (wedge all
// workers, fill the admission queue, then flood), which makes the shed
// count an exact function of the scenario — the same determinism the
// fault layer gets from seeded RNGs, obtained here by construction. The
// server reads its socket on one loop, so the sequence it reads in is the
// sequence the counters show.
package chaostest

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnsserver"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/netem"
)

// overloadZone is the wildcard zone the overload rig serves; answers
// carry chaosAnswer like the resolver rig.
const overloadZone = "overload.chaos.example."

// OverloadScenario is one serving-layer overload configuration.
type OverloadScenario struct {
	Name string
	// MaxInflight is the server's UDP worker-pool size (default 8).
	MaxInflight int
	// FloodFactor is the offered load as a multiple of MaxInflight
	// (default 8): MaxInflight queries wedge the workers, MaxInflight
	// fill the admission queue, and the remaining (FloodFactor−2)×
	// MaxInflight are the flood that must be shed.
	FloodFactor int
	// Overflow is the shed policy under test.
	Overflow dnsserver.OverflowPolicy
	// Immediate gives the handler dnsserver's immediate path: names
	// under "hot." are answered on the read loop, and every third flood
	// query, from the second, asks for one. Those are answered while the
	// queue is full, never shed.
	Immediate bool
}

// hotFlood is how many of a flood of n queries ask for "hot." names.
func (sc OverloadScenario) hotFlood(n int) int {
	if !sc.Immediate {
		return 0
	}
	return (n + 1) / 3 // i%3 == 1 for i < n
}

// OverloadResult is the deterministic outcome of one RunOverload
// execution: with the phases sequenced against the server's counters,
// every field is an exact function of the scenario.
type OverloadResult struct {
	// Stats is the server's accounting after the graceful drain.
	Stats dnsserver.ServerStats
	// FloodRefusals counts flood clients that got an explicit SERVFAIL
	// (OverflowServFail) rather than silence (OverflowDrop).
	FloodRefusals int
}

// overloadHandler wraps the authority behind two injected faults: names
// under "boom." panic (the hostile-flow case) and names under "slow."
// block on the current gate (how the harness wedges workers and holds
// queries in flight across a drain).
type overloadHandler struct {
	inner dnsserver.Handler
	mu    sync.Mutex
	// gate is installed by rearm and closed, once, by release.
	gate chan struct{}
}

func newOverloadHandler(inner dnsserver.Handler) *overloadHandler {
	return &overloadHandler{inner: inner, gate: make(chan struct{})}
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
	now dnsserver.FillHandler
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

// overloadRig builds the real-socket server: an authority wildcard zone
// on a frozen virtual clock behind the fault-injecting handler, with an
// immediate path when immediate is set. The clock is returned so RRL
// scenarios can advance virtual time between paced sends.
func overloadRig(tb testing.TB, immediate bool, configure func(*dnsserver.Server)) (*overloadHandler, *dnsserver.Server, string, *netem.Clock) {
	tb.Helper()
	clk := netem.NewClock(netem.SimStart)
	auth := authority.NewServer(authority.Config{
		ECSEnabled: true, Scope: authority.ScopeFixed(24), Now: clk.Now,
	})
	z := authority.NewZone(overloadZone, 30)
	z.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: chaosAnswer})
	auth.AddZone(z)
	h := newOverloadHandler(auth)
	var served dnsserver.Handler = h
	if immediate {
		served = immediateHandler{h, auth}
	}
	srv := dnsserver.New(served)
	srv.Now = clk.Now
	if configure != nil {
		configure(srv)
	}
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	return h, srv, bound.String(), clk
}

// dialOverload opens one client UDP socket against the rig.
func dialOverload(tb testing.TB, addr string) net.Conn {
	tb.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { conn.Close() })
	return conn
}

// packOverloadQuery packs one A query for a name under the rig zone.
func packOverloadQuery(tb testing.TB, id uint16, prefix string) []byte {
	tb.Helper()
	name := dnswire.MustParseName(prefix + overloadZone)
	data, err := dnswire.NewQuery(id, name, dnswire.TypeA).Pack()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func sendOverloadQuery(tb testing.TB, conn net.Conn, id uint16, prefix string) {
	tb.Helper()
	if _, err := conn.Write(packOverloadQuery(tb, id, prefix)); err != nil {
		tb.Fatalf("send query %d: %v", id, err)
	}
}

// readOverloadReply reads one reply within timeout; ok=false on timeout.
func readOverloadReply(tb testing.TB, conn net.Conn, timeout time.Duration) (*dnswire.Message, bool) {
	tb.Helper()
	conn.SetReadDeadline(time.Now().Add(timeout))
	buf := make([]byte, 65535)
	n, err := conn.Read(buf)
	if err != nil {
		return nil, false
	}
	msg, err := dnswire.Unpack(buf[:n])
	if err != nil {
		tb.Fatalf("unpack reply: %v", err)
	}
	return msg, true
}

// tcpExchange runs one framed query/response over a fresh TCP
// connection — the escape valve RRL slips steer clients to.
func tcpExchange(tb testing.TB, addr string, id uint16, prefix string) *dnswire.Message {
	tb.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	defer conn.Close()
	data := packOverloadQuery(tb, id, prefix)
	out := make([]byte, 2+len(data))
	binary.BigEndian.PutUint16(out, uint16(len(data)))
	copy(out[2:], data)
	if _, err := conn.Write(out); err != nil {
		tb.Fatalf("tcp send: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var lenBuf [2]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		tb.Fatalf("tcp read length: %v", err)
	}
	buf := make([]byte, binary.BigEndian.Uint16(lenBuf[:]))
	if _, err := io.ReadFull(conn, buf); err != nil {
		tb.Fatalf("tcp read frame: %v", err)
	}
	msg, err := dnswire.Unpack(buf)
	if err != nil {
		tb.Fatalf("tcp unpack: %v", err)
	}
	return msg
}

// waitServer polls the server's counters until cond holds; the flood
// phases are sequenced on these observations, which is what makes the
// shed count exact.
func waitServer(tb testing.TB, srv *dnsserver.Server, what string, cond func(dnsserver.ServerStats) bool) {
	tb.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond(srv.Stats()) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	tb.Fatalf("timed out waiting for %s; stats: %s", what, srv.Stats())
}

// expectAnswer requires a NoError reply carrying the rig's wildcard
// answer for the given transaction.
func expectAnswer(tb testing.TB, scenario string, conn net.Conn, id uint16) {
	tb.Helper()
	msg, ok := readOverloadReply(tb, conn, 2*time.Second)
	if !ok {
		tb.Fatalf("%s: query %d got no answer", scenario, id)
	}
	if msg.ID != id || msg.RCode != dnswire.RCodeNoError || len(msg.Answers) != 1 {
		tb.Fatalf("%s: query %d: bad reply %v", scenario, id, msg)
	}
	if a, ok := msg.Answers[0].Data.(*dnswire.ARData); !ok || a.Addr != chaosAnswer {
		tb.Fatalf("%s: query %d: wrong answer %v", scenario, id, msg.Answers[0])
	}
}

// RunOverload executes one overload scenario end to end:
//
//  1. wedge — MaxInflight "slow." queries occupy every pool worker;
//  2. fill — MaxInflight more queries (half "boom.") fill the admission
//     queue behind them;
//  3. flood — (FloodFactor−2)×MaxInflight concurrent queries arrive at a
//     full queue, so every one must be shed per the overflow policy,
//     but for the "hot." ones an Immediate scenario answers at once;
//  4. release — the gate opens, the admitted queries drain (panics
//     isolated into SERVFAILs), and every client's reply is checked;
//  5. aftermath — a fresh query is answered normally, then a graceful
//     Shutdown drains a re-wedged in-flight query before returning.
//
// Because each phase waits for the server's counters before the next
// begins, the final accounting is exact, not a bound.
func RunOverload(tb testing.TB, sc OverloadScenario) OverloadResult {
	tb.Helper()
	m := sc.MaxInflight
	if m <= 0 {
		m = 8
	}
	factor := sc.FloodFactor
	if factor <= 0 {
		factor = 8
	}
	flood := (factor - 2) * m
	hot := sc.hotFlood(flood)
	shed := flood - hot
	fillBoom := m / 2
	before := runtime.NumGoroutine()

	h, srv, addr, _ := overloadRig(tb, sc.Immediate, func(s *dnsserver.Server) {
		s.MaxInflight = m
		s.Overflow = sc.Overflow
	})

	// Phase 1: wedge every worker on the gate.
	wedge := make([]net.Conn, m)
	for i := range wedge {
		wedge[i] = dialOverload(tb, addr)
		sendOverloadQuery(tb, wedge[i], uint16(1+i), fmt.Sprintf("slow.w%03d.", i))
	}
	waitServer(tb, srv, "all workers wedged", func(st dnsserver.ServerStats) bool {
		return st.Inflight == int64(m)
	})

	// Phase 2: fill the admission queue behind them; the first half are
	// panic queries, so the panic path runs under full load.
	fill := make([]net.Conn, m)
	for i := range fill {
		fill[i] = dialOverload(tb, addr)
		prefix := fmt.Sprintf("fill.f%03d.", i)
		if i < fillBoom {
			prefix = fmt.Sprintf("boom.f%03d.", i)
		}
		sendOverloadQuery(tb, fill[i], uint16(101+i), prefix)
	}
	waitServer(tb, srv, "admission queue filled", func(st dnsserver.ServerStats) bool {
		return st.Received == int64(2*m)
	})

	// Phase 3: the flood. Workers wedged, queue full: every datagram the
	// read loop takes must be shed, so Shed is exact. Panic names are
	// mixed in — a shed panic query must never reach the handler — and
	// so, in an Immediate scenario, are hot names, answered on the loop.
	floodConns := make([]net.Conn, flood)
	floodPkts := make([][]byte, flood)
	for i := range floodConns {
		floodConns[i] = dialOverload(tb, addr)
		prefix := fmt.Sprintf("flood.x%03d.", i)
		switch {
		case i%3 == 0:
			prefix = fmt.Sprintf("boom.x%03d.", i)
		case i%3 == 1 && sc.Immediate:
			prefix = fmt.Sprintf("hot.x%03d.", i)
		}
		floodPkts[i] = packOverloadQuery(tb, uint16(1001+i), prefix)
	}
	var senders sync.WaitGroup
	for i := range floodConns {
		i := i
		senders.Add(1)
		go func() {
			defer senders.Done()
			if _, err := floodConns[i].Write(floodPkts[i]); err != nil {
				tb.Errorf("%s: flood send %d: %v", sc.Name, i, err)
			}
		}()
	}
	senders.Wait()
	// The read loop counts a datagram received before it counts it
	// shed or answered, so waiting on Received alone can read Shed one
	// short.
	waitServer(tb, srv, "flood read off the wire and shed", func(st dnsserver.ServerStats) bool {
		return st.Received == int64(factor*m) && st.Shed >= int64(shed) && st.Immediate >= int64(hot)
	})
	if st := srv.Stats(); st.Shed != int64(shed) {
		tb.Errorf("%s: shed %d of %d flood queries at a full queue", sc.Name, st.Shed, shed)
	}

	// Phase 4: open the gate; the admitted 2m queries drain — wedged and
	// fill answers go out, fill panics become counted SERVFAILs.
	h.release()
	waitServer(tb, srv, "admitted queries drained", func(st dnsserver.ServerStats) bool {
		return st.Inflight == 0 && st.Answered+st.Panics == int64(2*m+hot)
	})
	for i, conn := range wedge {
		expectAnswer(tb, sc.Name, conn, uint16(1+i))
	}
	for i, conn := range fill {
		id := uint16(101 + i)
		msg, ok := readOverloadReply(tb, conn, 2*time.Second)
		if !ok {
			tb.Fatalf("%s: fill query %d got no reply", sc.Name, id)
		}
		if i < fillBoom {
			if msg.ID != id || msg.RCode != dnswire.RCodeServFail {
				tb.Fatalf("%s: panic query %d: want SERVFAIL, got %v", sc.Name, id, msg)
			}
		} else if msg.ID != id || msg.RCode != dnswire.RCodeNoError {
			tb.Fatalf("%s: fill query %d: bad reply %v", sc.Name, id, msg)
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
		case sc.Immediate && i%3 == 1:
			expectAnswer(tb, sc.Name, conn, id)
		case sc.Overflow == dnsserver.OverflowServFail:
			msg, ok := readOverloadReply(tb, conn, 2*time.Second)
			if !ok || msg.ID != id || msg.RCode != dnswire.RCodeServFail {
				tb.Fatalf("%s: flood query %d: want SERVFAIL refusal, got %v (ok=%v)", sc.Name, id, msg, ok)
			}
			refusals++
		case sc.Overflow == dnsserver.OverflowDrop && silent < 3:
			if msg, ok := readOverloadReply(tb, conn, 100*time.Millisecond); ok {
				tb.Fatalf("%s: dropped flood query got a reply: %v", sc.Name, msg)
			}
			silent++
		}
	}

	// Phase 5: aftermath. A fresh query is served normally once the
	// flood subsides…
	legit := dialOverload(tb, addr)
	sendOverloadQuery(tb, legit, 7001, "aftermath.")
	expectAnswer(tb, sc.Name, legit, 7001)

	// …and a graceful drain still answers what it admitted: re-wedge one
	// query, Shutdown concurrently, release, and the answer must arrive
	// with Shutdown returning nil well inside its deadline.
	h.rearm()
	drain := dialOverload(tb, addr)
	sendOverloadQuery(tb, drain, 7002, "slow.drain.")
	waitServer(tb, srv, "drain query in flight", func(st dnsserver.ServerStats) bool {
		// Received too: the aftermath query's worker lowers Inflight only
		// after its reply is on the wire, so Inflight alone can read 1
		// while the drain query still sits unread in the socket buffer.
		return st.Inflight == 1 && st.Received == int64(factor*m+2)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	var shut sync.WaitGroup
	shut.Add(1)
	go func() {
		defer shut.Done()
		done <- srv.Shutdown(ctx)
	}()
	h.release()
	if err := <-done; err != nil {
		tb.Fatalf("%s: graceful drain missed its deadline: %v", sc.Name, err)
	}
	shut.Wait()
	expectAnswer(tb, sc.Name, drain, 7002)

	// Final accounting: exact, and balanced.
	st := srv.Stats()
	total := factor*m + 2 // + aftermath + drain query
	if !st.Balanced() {
		tb.Errorf("%s: accounting does not balance: %s", sc.Name, st)
	}
	if st.Received != int64(total) {
		tb.Errorf("%s: received %d, want %d", sc.Name, st.Received, total)
	}
	if want := int64(2*m - fillBoom + 2 + hot); st.Answered != want {
		tb.Errorf("%s: answered %d, want %d", sc.Name, st.Answered, want)
	}
	if st.Immediate != int64(hot) {
		tb.Errorf("%s: immediate %d, want %d", sc.Name, st.Immediate, hot)
	}
	if st.Shed != int64(shed) {
		tb.Errorf("%s: shed %d, want %d", sc.Name, st.Shed, shed)
	}
	if st.Panics != int64(fillBoom) {
		tb.Errorf("%s: panics %d, want %d", sc.Name, st.Panics, fillBoom)
	}
	if st.Slipped != 0 || st.RRLDropped != 0 || st.Malformed != 0 {
		tb.Errorf("%s: unexpected outcome classes: %s", sc.Name, st)
	}
	waitGoroutines(tb, sc.Name, before)
	return OverloadResult{Stats: st, FloodRefusals: refusals}
}

// RunRRLStorm drives a response-rate-limited server with a paced storm
// from one client prefix under the frozen virtual clock and asserts the
// exact seeded expectation: the burst answers, then refusals alternate
// drop / slip(TC=1) on the limiter's cadence; a refill after virtual
// time passes restores exactly rate×Δt answers; and TCP — the escape
// valve the slips advertise — is never limited. Each send is sequenced
// against the previous outcome (a reply, or the drop counter moving),
// so the storm's trace is deterministic down to each counter.
func RunRRLStorm(tb testing.TB) dnsserver.ServerStats {
	tb.Helper()
	const name = "rrl-storm"
	before := runtime.NumGoroutine()
	_, srv, addr, clk := overloadRig(tb, false, func(s *dnsserver.Server) {
		s.MaxInflight = 1
		s.RRL = 2 // a burst of 2, refilled at 2 per second
	})
	client := dialOverload(tb, addr)

	// step sends one query and requires the exact limiter outcome;
	// drops are confirmed by the RRLDropped counter advancing (a silent
	// outcome the client cannot observe).
	step := func(id uint16, want string, wantDropped int64) {
		tb.Helper()
		sendOverloadQuery(tb, client, id, fmt.Sprintf("storm.q%03d.", id))
		switch want {
		case "answer":
			expectAnswer(tb, name, client, id)
		case "slip":
			msg, ok := readOverloadReply(tb, client, 2*time.Second)
			if !ok {
				tb.Fatalf("%s: query %d: expected a TC slip, got silence", name, id)
			}
			if msg.ID != id || !msg.Truncated || len(msg.Answers) != 0 {
				tb.Fatalf("%s: query %d: want empty TC=1 slip, got %v", name, id, msg)
			}
		case "drop":
			waitServer(tb, srv, fmt.Sprintf("drop of query %d", id), func(st dnsserver.ServerStats) bool {
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
	msg := tcpExchange(tb, addr, 16, "storm.tcp.")
	if msg.ID != 16 || msg.RCode != dnswire.RCodeNoError || len(msg.Answers) != 1 {
		tb.Fatalf("%s: TCP escape query: bad reply %v", name, msg)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		tb.Fatalf("%s: drain: %v", name, err)
	}

	st := srv.Stats()
	if !st.Balanced() {
		tb.Errorf("%s: accounting does not balance: %s", name, st)
	}
	// 15 UDP + 1 TCP received; 4 UDP + 1 TCP answered; 5 slips; 6 drops.
	if st.Received != 16 || st.Answered != 5 || st.Slipped != 5 ||
		st.RRLDropped != 6 || st.Shed != 6 || st.Malformed != 0 || st.Panics != 0 {
		tb.Errorf("%s: counters off the seeded expectation: %s", name, st)
	}
	waitGoroutines(tb, name, before)
	return st
}
