package dnsserver

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/netem"
)

// handlerFunc adapts a function to the Handler interface.
type handlerFunc func(from netip.Addr, query *dnswire.Message) *dnswire.Message

func (f handlerFunc) HandleDNS(from netip.Addr, q *dnswire.Message) *dnswire.Message {
	return f(from, q)
}

// answering returns a handler that answers every query with one A
// record.
func answering() handlerFunc {
	return func(_ netip.Addr, q *dnswire.Message) *dnswire.Message {
		resp := dnswire.NewResponse(q)
		resp.Answers = append(resp.Answers, dnswire.RR{
			Name: q.Questions[0].Name, TTL: 30,
			Data: &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.1")},
		})
		return resp
	}
}

// gate returns a handler that blocks on release before answering, so
// tests can hold queries in flight deterministically.
func gate(release <-chan struct{}) handlerFunc {
	inner := answering()
	return func(from netip.Addr, q *dnswire.Message) *dnswire.Message {
		<-release
		return inner(from, q)
	}
}

// packQuery builds and packs one A query.
func packQuery(t *testing.T, id uint16, name dnswire.Name) []byte {
	t.Helper()
	data, err := dnswire.NewQuery(id, name, dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// udpSend fires one packed query at addr on a fresh socket and returns
// the socket for reading the reply.
func udpDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// udpRead reads one reply within timeout; ok=false on timeout.
func udpRead(t *testing.T, conn net.Conn, timeout time.Duration) (*dnswire.Message, bool) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(timeout))
	buf := make([]byte, 65535)
	n, err := conn.Read(buf)
	if err != nil {
		return nil, false
	}
	msg, err := dnswire.Unpack(buf[:n])
	if err != nil {
		t.Fatalf("unpack reply: %v", err)
	}
	return msg, true
}

// waitStat polls the stats snapshot until cond holds or the deadline
// passes.
func waitStat(t *testing.T, s *Server, what string, cond func(ServerStats) bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond(s.Stats()) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; stats: %s", what, s.Stats())
}

// waitBaseline gives goroutines a grace period to wind back down to the
// pre-test count.
func waitBaseline(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines: %d, baseline %d — leak", runtime.NumGoroutine(), before)
}

// TestShutdownDrainsInflightUDP holds a UDP query in the handler, races
// Shutdown against it, and requires that the drain waits for the
// in-flight answer, the answer reaches the client, and the goroutine
// count returns to baseline.
func TestShutdownDrainsInflightUDP(t *testing.T) {
	baseline := runtime.NumGoroutine()
	release := make(chan struct{})
	srv := New(gate(release))
	srv.MaxInflight = 4
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn := udpDial(t, bound.String())
	if _, err := conn.Write(packQuery(t, 7, "www.zone.test.")); err != nil {
		t.Fatal(err)
	}
	waitStat(t, srv, "query in flight", func(st ServerStats) bool { return st.Inflight == 1 })

	var wg sync.WaitGroup
	done := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v with a query still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	resp, ok := udpRead(t, conn, time.Second)
	if !ok {
		t.Fatal("in-flight query got no answer across the drain")
	}
	if resp.ID != 7 || len(resp.Answers) != 1 {
		t.Fatalf("drained reply: %v", resp)
	}
	st := srv.Stats()
	if st.Received != 1 || st.Answered != 1 || !st.Balanced() {
		t.Fatalf("accounting after drain: %s", st)
	}
	waitBaseline(t, baseline)
}

// TestShutdownDrainsInflightTCP does the same over TCP: the query read
// before shutdown is answered, then the connection drains closed.
func TestShutdownDrainsInflightTCP(t *testing.T) {
	baseline := runtime.NumGoroutine()
	release := make(chan struct{})
	srv := New(gate(release))
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", bound.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	q := packQuery(t, 9, "www.zone.test.")
	frame := make([]byte, 2+len(q))
	binary.BigEndian.PutUint16(frame, uint16(len(q)))
	copy(frame[2:], q)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	waitStat(t, srv, "query in flight", func(st ServerStats) bool { return st.Inflight == 1 })

	var wg sync.WaitGroup
	done := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v with a TCP query still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	var lenBuf [2]byte
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		t.Fatalf("reading drained reply: %v", err)
	}
	payload := make([]byte, binary.BigEndian.Uint16(lenBuf[:]))
	if _, err := io.ReadFull(conn, payload); err != nil {
		t.Fatal(err)
	}
	resp, err := dnswire.Unpack(payload)
	if err != nil || resp.ID != 9 || len(resp.Answers) != 1 {
		t.Fatalf("drained TCP reply: %v, %v", resp, err)
	}
	// The drained connection is closed, not kept for more queries.
	if _, err := io.ReadFull(conn, lenBuf[:]); err == nil {
		t.Fatal("connection still open after drain")
	}
	if st := srv.Stats(); !st.Balanced() || st.Answered != 1 {
		t.Fatalf("accounting after drain: %s", st)
	}
	waitBaseline(t, baseline)
}

// TestShutdownForceClosesOnDeadline wedges the handler and requires
// Shutdown to give up at its deadline, force-close the TCP connection,
// and report ctx.Err().
func TestShutdownForceClosesOnDeadline(t *testing.T) {
	release := make(chan struct{})
	srv := New(gate(release))
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", bound.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	q := packQuery(t, 3, "www.zone.test.")
	frame := make([]byte, 2+len(q))
	binary.BigEndian.PutUint16(frame, uint16(len(q)))
	copy(frame[2:], q)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	waitStat(t, srv, "query in flight", func(st ServerStats) bool { return st.Inflight == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	close(release) // unwedge the handler, then wait everything out
	srv.Close()
}

// TestLatePacketsRefusedAfterShutdown checks that a query sent after
// the drain gets nothing: the sockets are gone.
func TestLatePacketsRefusedAfterShutdown(t *testing.T) {
	srv := New(answering())
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	conn := udpDial(t, bound.String())
	conn.Write(packQuery(t, 1, "late.zone.test."))
	if _, ok := udpRead(t, conn, 200*time.Millisecond); ok {
		t.Fatal("got an answer from a shut-down server")
	}
	if _, err := net.DialTimeout("tcp", bound.String(), 200*time.Millisecond); err == nil {
		t.Fatal("TCP accept still open after shutdown")
	}
}

// TestPanicIsolation drives a panicking handler and requires a SERVFAIL
// answer, a counted panic, and continued service afterwards.
func TestPanicIsolation(t *testing.T) {
	inner := answering()
	srv := New(handlerFunc(func(from netip.Addr, q *dnswire.Message) *dnswire.Message {
		if q.Questions[0].Name == "boom.zone.test." {
			panic("handler bug")
		}
		return inner(from, q)
	}))
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn := udpDial(t, bound.String())
	conn.Write(packQuery(t, 1, "boom.zone.test."))
	resp, ok := udpRead(t, conn, time.Second)
	if !ok {
		t.Fatal("panicking query got no reply")
	}
	if resp.RCode != dnswire.RCodeServFail || resp.ID != 1 {
		t.Fatalf("panic reply = %v, want SERVFAIL", resp)
	}
	// The process survived; a normal query still gets answered.
	conn.Write(packQuery(t, 2, "www.zone.test."))
	resp, ok = udpRead(t, conn, time.Second)
	if !ok || resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 {
		t.Fatalf("follow-up reply = %v, %v", resp, ok)
	}
	st := srv.Stats()
	if st.Panics != 1 || st.Answered != 1 || st.Received != 2 || !st.Balanced() {
		t.Fatalf("accounting: %s", st)
	}
}

// TestZeroLengthTCPFrameRejected sends the zero-length frame the old
// code dispatched as an empty packet; now it must close the connection
// and count one malformed query.
func TestZeroLengthTCPFrameRejected(t *testing.T) {
	srv := New(answering())
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", bound.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0, 0}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection survived a zero-length frame")
	}
	waitStat(t, srv, "malformed count", func(st ServerStats) bool {
		return st.Malformed == 1 && st.Received == 1 && st.Balanced()
	})
}

// TestMaxConnsCap holds one connection open at MaxConns=1 and requires
// the second accept to be closed immediately and counted.
func TestMaxConnsCap(t *testing.T) {
	srv := New(answering())
	srv.MaxConns = 1
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	first, err := net.Dial("tcp", bound.String())
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	waitStat(t, srv, "first conn admitted", func(st ServerStats) bool { return st.Conns == 1 })

	second, err := net.Dial("tcp", bound.String())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	second.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := second.Read(make([]byte, 1)); err == nil {
		t.Fatal("second connection admitted past MaxConns=1")
	}
	waitStat(t, srv, "rejection counted", func(st ServerStats) bool {
		return st.ConnsRejected == 1 && st.ConnsTotal == 1
	})
}

// TestUDPOverflowServFail saturates a one-worker pool and requires every
// query of an overflow burst to be answered SERVFAIL (the explicit shed
// policy), each under its own ID, while the admitted queries still
// complete, with exact accounting. The IDs are all above 255, so both of
// an ID's bytes must reach the refusal, and the burst is read off the
// socket back to back, so a refusal must be on the wire before the next
// one is packed into the same buffer. A query that does not decode is
// answered FORMERR while the queue is full, as at any other time: the
// read loop decodes it before it is offered to the queue.
func TestUDPOverflowServFail(t *testing.T) {
	release := make(chan struct{})
	srv := New(gate(release))
	srv.MaxInflight = 1
	srv.Overflow = OverflowServFail
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	unwedge := sync.OnceFunc(func() { close(release) })
	defer unwedge() // before Close, which waits for the wedged worker

	conn := udpDial(t, bound.String())
	// q1 occupies the single worker; q2 fills the one-slot queue.
	conn.Write(packQuery(t, 0x0101, "www.zone.test."))
	waitStat(t, srv, "worker occupied", func(st ServerStats) bool { return st.Inflight == 1 })
	conn.Write(packQuery(t, 0x0102, "www.zone.test."))
	waitStat(t, srv, "queue filled", func(st ServerStats) bool { return st.Received == 2 })
	// The burst overflows: the read loop sheds each query with SERVFAIL
	// immediately, while the pool is still wedged.
	const burst = 64
	var wires [][]byte
	for i := 0; i < burst; i++ {
		wires = append(wires, packQuery(t, uint16(0x1200+i), "www.zone.test."))
	}
	for _, w := range wires {
		conn.Write(w)
	}
	seen := make(map[uint16]bool)
	for i := 0; i < burst; i++ {
		resp, ok := udpRead(t, conn, time.Second)
		if !ok {
			t.Fatalf("%d of %d overflow queries got a SERVFAIL", i, burst)
		}
		if resp.ID < 0x1200 || resp.ID >= 0x1200+burst || seen[resp.ID] || resp.RCode != dnswire.RCodeServFail {
			t.Fatalf("overflow reply %d = %v, want SERVFAIL under an ID of the burst not yet answered", i, resp)
		}
		seen[resp.ID] = true
	}
	// A query whose question decodes but whose answer count promises a
	// record that is not there: FORMERR under its ID, without a question,
	// and counted malformed rather than shed.
	bad := packQuery(t, 0x1300, "www.zone.test.")
	bad[7] = 1 // ANCOUNT
	conn.Write(bad)
	resp, ok := udpRead(t, conn, time.Second)
	if !ok || resp.ID != 0x1300 || resp.RCode != dnswire.RCodeFormErr || len(resp.Questions) != 0 {
		t.Fatalf("undecodable reply under a full queue = %v, %v; want a bare FORMERR for ID 0x1300", resp, ok)
	}
	unwedge()
	for _, want := range []uint16{0x0101, 0x0102} {
		resp, ok := udpRead(t, conn, time.Second)
		if !ok || resp.ID != want || resp.RCode != dnswire.RCodeNoError {
			t.Fatalf("admitted query %d: reply %v, %v", want, resp, ok)
		}
	}
	waitStat(t, srv, "final accounting", func(st ServerStats) bool {
		return st.Received == burst+3 && st.Answered == 2 && st.Shed == burst && st.Malformed == 1 && st.Balanced()
	})
}

// TestRRLOverSocket runs the limiter against real sockets under a
// frozen virtual clock: at 2/s, a burst of 2, the six queries
// must resolve to answer, answer, silence, TC-slip, silence, TC-slip —
// exactly, and TCP must stay unlimited as the escape valve.
func TestRRLOverSocket(t *testing.T) {
	clk := netem.NewClock(netem.SimStart)
	srv := New(answering())
	srv.RRL = 2
	srv.Now = clk.Now
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn := udpDial(t, bound.String())
	type step struct {
		id     uint16
		answer bool // expect an A answer
		slip   bool // expect a TC=1 empty reply
	}
	steps := []step{
		{1, true, false}, {2, true, false}, // burst passes
		{3, false, false}, {4, false, true}, // refused: drop, slip
		{5, false, false}, {6, false, true},
	}
	for _, st := range steps {
		conn.Write(packQuery(t, st.id, "www.zone.test."))
		resp, ok := udpRead(t, conn, 300*time.Millisecond)
		switch {
		case st.answer:
			if !ok || resp.ID != st.id || len(resp.Answers) != 1 {
				t.Fatalf("query %d: want answer, got %v, %v", st.id, resp, ok)
			}
		case st.slip:
			if !ok || resp.ID != st.id || !resp.Truncated || len(resp.Answers) != 0 {
				t.Fatalf("query %d: want TC slip, got %v, %v", st.id, resp, ok)
			}
		default:
			if ok {
				t.Fatalf("query %d: want silence, got %v", st.id, resp)
			}
		}
	}
	st := srv.Stats()
	if st.Answered != 2 || st.Slipped != 2 || st.RRLDropped != 2 || st.Shed != 2 || !st.Balanced() {
		t.Fatalf("accounting: %s", st)
	}

	// The slip's promise: TCP is never rate-limited.
	tc, err := net.Dial("tcp", bound.String())
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	q := packQuery(t, 7, "www.zone.test.")
	frame := make([]byte, 2+len(q))
	binary.BigEndian.PutUint16(frame, uint16(len(q)))
	copy(frame[2:], q)
	if _, err := tc.Write(frame); err != nil {
		t.Fatal(err)
	}
	var lenBuf [2]byte
	tc.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := io.ReadFull(tc, lenBuf[:]); err != nil {
		t.Fatalf("TCP escape valve blocked: %v", err)
	}
	payload := make([]byte, binary.BigEndian.Uint16(lenBuf[:]))
	if _, err := io.ReadFull(tc, payload); err != nil {
		t.Fatal(err)
	}
	resp, err := dnswire.Unpack(payload)
	if err != nil || resp.ID != 7 || len(resp.Answers) != 1 {
		t.Fatalf("TCP reply = %v, %v", resp, err)
	}
}
