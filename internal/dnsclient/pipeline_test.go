package dnsclient

import (
	"context"
	"hash/fnv"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecsdns/internal/dnsserver"
	"ecsdns/internal/dnswire"
)

// nameHashHandler answers every A query with an address derived from the
// query name, so a demux test can tell responses apart. Optionally it
// drops the first `drop` queries for each name (to exercise retries) and
// pads answers with `pad` extra records (to force UDP truncation).
type nameHashHandler struct {
	mu    sync.Mutex
	seen  map[dnswire.Name]int
	drop  int
	pad   int
	calls int
}

func hashAddr(name dnswire.Name) netip.Addr {
	h := fnv.New32a()
	h.Write([]byte(name))
	s := h.Sum32()
	return netip.AddrFrom4([4]byte{10, byte(s >> 16), byte(s >> 8), byte(s)})
}

func (h *nameHashHandler) HandleDNS(_ netip.Addr, q *dnswire.Message) *dnswire.Message {
	name := q.Question().Name
	h.mu.Lock()
	h.calls++
	if h.seen == nil {
		h.seen = make(map[dnswire.Name]int)
	}
	// The query's name is borrowed for the call, and the map stores the
	// key on every assignment, so each stores a clone.
	h.seen[name.Clone()]++
	dropped := h.seen[name] <= h.drop
	h.mu.Unlock()
	if dropped {
		return nil
	}
	resp := dnswire.NewResponse(q)
	resp.Answers = append(resp.Answers, dnswire.RR{
		Name: name, TTL: 60, Data: &dnswire.ARData{Addr: hashAddr(name)},
	})
	for i := 0; i < h.pad; i++ {
		resp.Answers = append(resp.Answers, dnswire.RR{
			Name: name, TTL: 60,
			Data: &dnswire.ARData{Addr: netip.AddrFrom4([4]byte{10, 99, byte(i >> 8), byte(i)})},
		})
	}
	return resp
}

func (h *nameHashHandler) callCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.calls
}

func startPipelineServer(t *testing.T, h dnsserver.Handler) string {
	t.Helper()
	srv := dnsserver.New(h)
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return bound.String()
}

func newTestPipeline(t *testing.T, cfg PipelineConfig) *Pipeline {
	t.Helper()
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func pipeQuery(name dnswire.Name) *dnswire.Message {
	q := dnswire.NewQuery(0, name, dnswire.TypeA)
	q.EDNS = dnswire.NewEDNS()
	return q
}

// TestPipelineConcurrentDemux floods many in-flight queries for distinct
// names through the shared sockets and checks every response was routed
// back to the query that asked for it.
func TestPipelineConcurrentDemux(t *testing.T) {
	addr := startPipelineServer(t, &nameHashHandler{})
	p := newTestPipeline(t, PipelineConfig{Timeout: 2 * time.Second})

	const queries = 200
	const workers = 32
	names := make([]dnswire.Name, queries)
	for i := range names {
		names[i] = dnswire.MustParseName("q" + itoa(i) + ".pipe.test")
	}
	var wg sync.WaitGroup
	errs := make(chan error, queries)
	sem := make(chan struct{}, workers)
	for _, name := range names {
		name := name
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			resp, err := p.Exchange(context.Background(), addr, pipeQuery(name))
			if err != nil {
				errs <- err
				return
			}
			if len(resp.Answers) != 1 {
				errs <- ErrMismatch
				return
			}
			if got := resp.Answers[0].Data.(*dnswire.ARData).Addr; got != hashAddr(name) {
				errs <- ErrMismatch // crossed wires: answer for another name
				return
			}
			if resp.Question().Name != name {
				errs <- ErrMismatch
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Received < queries {
		t.Fatalf("stats: received %d < %d sent queries", st.Received, queries)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

// TestPipelineRetryTruncationTCPFallback exercises the full transport
// escalation end-to-end against a live dnsserver: the first UDP attempt
// is silently dropped, the retry comes back truncated, and the TCP
// fallback delivers the complete answer.
func TestPipelineRetryTruncationTCPFallback(t *testing.T) {
	h := &nameHashHandler{drop: 1, pad: 119}
	addr := startPipelineServer(t, h)
	p := newTestPipeline(t, PipelineConfig{Timeout: 300 * time.Millisecond})
	name := dnswire.Name("fallback.pipe.test.")
	q := dnswire.NewQuery(0, name, dnswire.TypeA)
	q.EDNS = &dnswire.EDNS{UDPSize: 512}
	resp, err := p.Exchange(context.Background(), addr, q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Truncated || len(resp.Answers) != 120 {
		t.Fatalf("tc=%v answers=%d, want full 120 via TCP", resp.Truncated, len(resp.Answers))
	}
	// drop + truncated UDP retry + TCP = at least 3 handler calls.
	if h.callCount() < 3 {
		t.Fatalf("handler calls = %d, want ≥ 3", h.callCount())
	}
	// One name, dropped once: a key kept as the query's borrowed view
	// reads poison in race builds, and every UDP attempt is dropped.
	h.mu.Lock()
	seen := len(h.seen)
	h.mu.Unlock()
	if seen != 1 {
		t.Fatalf("handler counted %d names, want 1", seen)
	}
	st := p.Stats()
	if st.Retries < 1 || st.TCPFallbacks != 1 {
		t.Fatalf("stats = %+v, want ≥1 retry and exactly 1 TCP fallback", st)
	}
}

func TestPipelineTimeoutFailsWithinBound(t *testing.T) {
	// A server that drops every query, over UDP and TCP: the exchange
	// must fail within its bound — three 100ms attempts, the 100ms and
	// 200ms backoffs, and a TCP fallback the server hangs up on —
	// without falling back a second time.
	h := &nameHashHandler{drop: 1 << 30}
	addr := startPipelineServer(t, h)
	p := newTestPipeline(t, PipelineConfig{Timeout: 100 * time.Millisecond})
	start := time.Now()
	_, err := p.Exchange(context.Background(), addr, pipeQuery("drop.pipe.test."))
	if err == nil {
		t.Fatal("blackholed query succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("failure took %v, want ~600ms", elapsed)
	}
	if st := p.Stats(); st.Sent != 1+pipelineRetries || st.Timeouts != st.Sent || st.TCPFallbacks != 1 {
		t.Fatalf("stats = %+v, want %d timed-out UDP attempts and one TCP fallback", st, 1+pipelineRetries)
	}
}

// TestPipelineContextCancel cancels an exchange at each place it waits
// and requires context.Canceled within a second, before any retry is
// sent. The attempt and TCP waits are 10 s, so a wait that stops
// listening to ctx fails those rows on every run; a backoff wait that
// stops listening sends the retry once its 100ms are up.
func TestPipelineContextCancel(t *testing.T) {
	dropAll := func(t *testing.T) string { return startPipelineServer(t, &nameHashHandler{drop: 1 << 30}) }
	after50ms := func(_ *Pipeline, elapsed time.Duration) bool { return elapsed >= 50*time.Millisecond }
	for _, tc := range []struct {
		name   string
		cfg    PipelineConfig
		server func(t *testing.T) string
		tcp    bool // exchange over exchangeTCP alone
		cancel func(p *Pipeline, elapsed time.Duration) bool
	}{
		// A cancel while a UDP attempt waits for its answer.
		{"attempt", PipelineConfig{Timeout: 10 * time.Second}, dropAll, false, after50ms},
		// A cancel once the first attempt has timed out and the retry
		// waits out its backoff.
		{"backoff", PipelineConfig{Timeout: 10 * time.Millisecond}, dropAll, false,
			func(p *Pipeline, _ time.Duration) bool { return p.Stats().Retries > 0 }},
		// A cancel after the TCP fallback has dialled and sent, while it
		// waits for an answer that never comes.
		{"tcp-read", PipelineConfig{Timeout: 10 * time.Second}, startTCPStaller, true, after50ms},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := tc.server(t)
			p := newTestPipeline(t, tc.cfg)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			start := time.Now()
			go func() {
				for ctx.Err() == nil && !tc.cancel(p, time.Since(start)) {
					time.Sleep(time.Millisecond)
				}
				cancel()
			}()
			var err error
			if tc.tcp {
				err = p.exchangeTCP(ctx, netip.MustParseAddrPort(addr), pipeQuery("cancel.pipe.test."), &dnswire.Message{})
			} else {
				_, err = p.Exchange(ctx, addr, pipeQuery("cancel.pipe.test."))
			}
			if err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Fatalf("cancellation took %v", elapsed)
			}
			if st := p.Stats(); st.Sent > 1 {
				t.Fatalf("a retry was sent after the cancel: %+v", st)
			}
		})
	}
}

// TestSweepCancelDrains cancels a sweep against a server that never
// answers while its first two probes are in flight: the third never
// starts, the two attempts run to their deadline rather than aborting,
// and neither is retried or moved to TCP.
func TestSweepCancelDrains(t *testing.T) {
	addr := startPipelineServer(t, &nameHashHandler{drop: 1 << 30})
	p := newTestPipeline(t, PipelineConfig{Timeout: 200 * time.Millisecond})
	dest := netip.MustParseAddrPort(addr)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := 0
	probe := func(_ int, q *dnswire.Message) (netip.AddrPort, error) {
		if started == 3 {
			return netip.AddrPort{}, io.EOF
		}
		if started == 1 {
			cancel()
		}
		*q = *pipeQuery(dnswire.MustParseName("d" + itoa(started) + ".pipe.test"))
		started++
		return dest, nil
	}
	var ended []error
	done := func(_ int, _ *dnswire.Message, _ time.Time, err error) { ended = append(ended, err) }
	start := time.Now()
	if err := p.Sweep(ctx, 2, 0, nil, probe, done); err != context.Canceled {
		t.Fatalf("Sweep = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Fatalf("the sweep returned after %v, before its attempts' deadline", elapsed)
	}
	if len(ended) != 2 || ended[0] != context.Canceled || ended[1] != context.Canceled {
		t.Fatalf("probes ended with %v, want two cut short by the cancel", ended)
	}
	if st := p.Stats(); st.Sent != 2 || st.Timeouts != 2 || st.Retries != 0 || st.TCPFallbacks != 0 || st.Aborted != 0 {
		t.Fatalf("stats = %+v, want 2 attempts that timed out and nothing after them", st)
	}
}

// TestSweepRate runs a window of 2 at 20 probes/s. Ten probes take at
// least the 0.4 s the eight past the burst wait for, and no probe's first
// datagram goes out ahead of the bucket. probe is asked whenever a slot
// is free, a target it returns waiting in its slot for its token, so the
// sweep learns that its input has ended while the last token is awaited
// and returns once the last probe ends, not a token later. A cancel
// while the sweep waits for a token ends it at once, with every probe it
// started ended once.
func TestSweepRate(t *testing.T) {
	const window, rate = 2, 20
	server := startEchoResponder(t, nil)
	p := newTestPipeline(t, PipelineConfig{Timeout: 2 * time.Second})
	run := func(ctx context.Context, n int) (started int, ended []int, lastDone time.Time, err error) {
		var inSlot [window]int
		start := time.Now()
		probe := func(slot int, q *dnswire.Message) (netip.AddrPort, error) {
			if started == n {
				return netip.AddrPort{}, io.EOF
			}
			if ctx.Err() != nil {
				t.Errorf("probe %d started after the cancel", started)
			}
			*q = *pipeQuery(dnswire.MustParseName("rate" + itoa(started) + ".pipe.test"))
			inSlot[slot] = started
			started++
			ended = append(ended, 0)
			return server, nil
		}
		done := func(slot int, _ *dnswire.Message, sent time.Time, err error) {
			i := inSlot[slot]
			if err != nil && err != context.Canceled {
				t.Errorf("probe %d: %v", i, err)
			}
			if ahead := float64(i+1) - window - rate*sent.Sub(start).Seconds(); err == nil && ahead > 0 {
				t.Errorf("probe %d was sent %.2f tokens ahead of the bucket", i, ahead)
			}
			ended[i]++
			lastDone = time.Now()
		}
		err = p.Sweep(ctx, window, rate, nil, probe, done)
		return started, ended, lastDone, err
	}

	begun := time.Now()
	started, ended, lastDone, err := run(context.Background(), 10)
	returned := time.Now()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := returned.Sub(begun); started != 10 || elapsed < 400*time.Millisecond {
		t.Fatalf("%d probes started in %v, want 10 in at least 400ms", started, elapsed)
	}
	if late := returned.Sub(lastDone); late > 25*time.Millisecond {
		t.Fatalf("the sweep returned %v after its last probe ended, want within 25ms, half a token's wait: it waited for a token to learn its input had ended", late)
	}
	for i, k := range ended {
		if k != 1 {
			t.Fatalf("probe %d ended %d times, want once", i, k)
		}
	}

	// Past the burst a token comes every 50 ms: 225 ms in, the sweep has
	// sent 6 probes, had their answers, and holds 2 that wait for theirs.
	ctx, cancel := context.WithCancel(context.Background())
	var cancelled time.Time
	stop := time.AfterFunc(225*time.Millisecond, func() {
		cancelled = time.Now()
		cancel()
	})
	defer stop.Stop()
	started, ended, _, err = run(ctx, 1<<30)
	if err != context.Canceled {
		t.Fatalf("Sweep = %v, want context.Canceled", err)
	}
	if late := time.Since(cancelled); late > 100*time.Millisecond {
		t.Fatalf("the sweep returned %v after the cancel, want within 100ms", late)
	}
	for i, k := range ended {
		if k != 1 {
			t.Fatalf("probe %d of %d ended %d times, want once", i, started, k)
		}
	}

	// A rate so low that the wait for a token overflows a Duration still
	// sets the timer ahead: one in the past would spin the sweep.
	s := &sweep{slots: make([]slot, window), rate: 1e-10, refilled: time.Now()}
	if next := s.take(); !next.After(time.Now()) {
		t.Fatalf("at rate 1e-10 the next token is due at %v, in the past", next)
	}
}

// TestSweepInputWake: a probe with no target yet returns ErrNoTarget,
// and the sweep goes on taking answers while its input waits: the first
// probe's answer is in before the second target is sent. A send on ready
// then brings the sweep back to its probe.
func TestSweepInputWake(t *testing.T) {
	server := startEchoResponder(t, nil)
	p := newTestPipeline(t, PipelineConfig{Timeout: 2 * time.Second})
	ready := make(chan struct{}, 1)
	var sent atomic.Int64 // targets the input has brought
	sent.Store(1)
	started, ended := 0, 0
	probe := func(_ int, q *dnswire.Message) (netip.AddrPort, error) {
		switch {
		case started == 2:
			return netip.AddrPort{}, io.EOF
		case int64(started) == sent.Load():
			return netip.AddrPort{}, ErrNoTarget
		}
		*q = *pipeQuery(dnswire.MustParseName("in" + itoa(started) + ".pipe.test"))
		started++
		return server, nil
	}
	done := func(_ int, _ *dnswire.Message, _ time.Time, err error) {
		if err != nil {
			t.Errorf("probe: %v", err)
		}
		if ended++; ended == 1 {
			go func() { // the input comes only once the first answer is in
				sent.Add(1)
				ready <- struct{}{}
			}()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := p.Sweep(ctx, 2, 0, ready, probe, done); err != nil {
		t.Fatalf("Sweep = %v, want nil: the input's wake went unheard", err)
	}
	if started != 2 || ended != 2 {
		t.Fatalf("%d probes started and %d ended, want 2 and 2", started, ended)
	}
}

// TestSweepEndOfInput: a sweep over an input of unknown length runs
// until probe returns io.EOF, gives each slot one probe at a time, and
// returns once the probes it started have ended, although its rate has
// it wait for tokens on the way.
func TestSweepEndOfInput(t *testing.T) {
	server := startEchoResponder(t, nil)
	p := newTestPipeline(t, PipelineConfig{Timeout: 2 * time.Second})
	const n, window = 50, 4
	var busy [window]bool
	calls, ended := 0, 0
	probe := func(slot int, q *dnswire.Message) (netip.AddrPort, error) {
		if calls++; calls > n {
			return netip.AddrPort{}, io.EOF
		}
		if busy[slot] {
			t.Errorf("slot %d took a probe before its last one ended", slot)
		}
		busy[slot] = true
		*q = *pipeQuery(dnswire.MustParseName("e" + itoa(calls) + ".pipe.test"))
		return server, nil
	}
	done := func(slot int, _ *dnswire.Message, _ time.Time, err error) {
		if err != nil {
			t.Errorf("probe in slot %d: %v", slot, err)
		}
		busy[slot] = false
		ended++
	}
	if err := p.Sweep(context.Background(), window, 1000, nil, probe, done); err != nil {
		t.Fatal(err)
	}
	if calls != n+1 || ended != n {
		t.Fatalf("probe called %d times and done %d, want %d and %d", calls, ended, n+1, n)
	}
}

// TestSweepRefusedMidBatch sends a window of 8 probes in one batch, the
// fourth to port 0, which the kernel refuses while it sends the rest.
// The refusal ends that attempt as a refused sendto always has: each of
// its three UDP attempts counts as a SendErrors, the two retries wait
// out their backoff, and the TCP fallback fails. Every other probe is
// answered, each index ends once, and the ledger balances.
func TestSweepRefusedMidBatch(t *testing.T) {
	server := startEchoResponder(t, nil)
	p := newTestPipeline(t, PipelineConfig{Timeout: 2 * time.Second})
	const n, refused = 8, 3
	var inSlot [n]int // the probe each slot runs
	next := 0
	probe := func(slot int, q *dnswire.Message) (netip.AddrPort, error) {
		if next == n {
			return netip.AddrPort{}, io.EOF
		}
		i := next
		next++
		inSlot[slot] = i
		*q = *pipeQuery(dnswire.MustParseName("r" + itoa(i) + ".pipe.test"))
		if i == refused {
			return netip.AddrPortFrom(server.Addr(), 0), nil
		}
		return server, nil
	}
	ended := make([]int, n)
	done := func(slot int, resp *dnswire.Message, _ time.Time, err error) {
		i := inSlot[slot]
		ended[i]++
		switch {
		case i == refused && err == nil:
			t.Errorf("probe %d to port 0 was answered", i)
		case i != refused && err != nil:
			t.Errorf("probe %d: %v", i, err)
		case i != refused && resp.Question().Name != dnswire.MustParseName("r"+itoa(i)+".pipe.test"):
			t.Errorf("probe %d got the answer to %v", i, resp.Question())
		}
	}
	if err := p.Sweep(context.Background(), n, 0, nil, probe, done); err != nil {
		t.Fatal(err)
	}
	for i, k := range ended {
		if k != 1 {
			t.Fatalf("probe %d ended %d times, want once", i, k)
		}
	}
	st := p.Stats()
	if st.Received != n-1 || st.SendErrors != 1+pipelineRetries || st.Retries != pipelineRetries || st.TCPFallbacks != 1 {
		t.Fatalf("stats = %+v, want %d received and, for the refused probe, %d send errors, %d retries and one TCP fallback",
			st, n-1, 1+pipelineRetries, pipelineRetries)
	}
	if err := st.Check(); err != nil {
		t.Fatalf("%v: %+v", err, st)
	}
}

// TestExchangeTCPCancelledDial: a TCP fallback whose ctx is already
// cancelled returns context.Canceled without opening a connection.
func TestExchangeTCPCancelledDial(t *testing.T) {
	ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	p := newTestPipeline(t, PipelineConfig{Timeout: 10 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.exchangeTCP(ctx, ln.Addr().(*net.TCPAddr).AddrPort(), pipeQuery("dial.pipe.test."), &dnswire.Message{}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A connection the dial made is in the accept queue by now.
	ln.SetDeadline(time.Now().Add(100 * time.Millisecond))
	if c, err := ln.Accept(); err == nil {
		c.Close()
		t.Fatal("a cancelled exchange still dialled the server")
	}
}

// startTCPStaller listens on TCP, reads the query off each connection it
// accepts and never answers; it hangs up once the client does.
func startTCPStaller(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			io.Copy(io.Discard, c)
			c.Close()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return ln.Addr().String()
}

// TestAbortDrainsDeliveredSlot covers the race between the reader and
// the end of an attempt: the reader took the key and put the slot on its
// sweep's ready list before a cancel withdrew the attempt. The withdraw
// must take the slot off that list too; a slot reused with the delivery
// still queued hands its next probe a stale answer on the sweep's next
// look.
func TestAbortDrainsDeliveredSlot(t *testing.T) {
	p := newTestPipeline(t, PipelineConfig{})
	s := p.newOne()
	var ended []error
	s.ctx, s.done = context.Background(), func(_ int, _ *dnswire.Message, _ time.Time, err error) { ended = append(ended, err) }
	sl := &s.slots[0]
	sl.dest, sl.state = netip.MustParseAddrPort("192.0.2.1:53"), slotWaiting
	if err := p.register(sl); err != nil {
		t.Fatal(err)
	}
	s.busy++
	s.queue(sl, time.Now().Add(time.Hour))
	// Play the reader: a response header carrying the registered ID.
	wire, err := (&dnswire.Message{Header: dnswire.Header{ID: sl.id, Response: true}}).Pack()
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	p.deliverLocked(wire, sl.dest)
	p.mu.Unlock()
	if filed := *p.findLocked(sl.dest, sl.id) != nil; filed || len(s.ready) != 1 {
		t.Fatalf("deliver left the key filed (%v) and %d ready slots, want not and 1", filed, len(s.ready))
	}
	s.halt(context.Canceled)
	if len(s.ready) != 0 {
		t.Fatal("the abort freed a slot whose delivery is still on the ready list")
	}
	if len(ended) != 1 || ended[0] != context.Canceled || s.busy != 0 || s.head != nil {
		t.Fatalf("probe ended with %v, %d busy, due list empty %v; want one end with the cancellation cause", ended, s.busy, s.head == nil)
	}
	if got := p.Stats().Aborted; got != 1 {
		t.Fatalf("Aborted = %d, want 1", got)
	}
}

func TestPipelineClosed(t *testing.T) {
	p, err := NewPipeline(PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal("second Close must be a no-op:", err)
	}
	if _, err := p.Exchange(context.Background(), "127.0.0.1:53", pipeQuery("x.pipe.test.")); err == nil {
		t.Fatal("closed pipeline exchanged")
	}
}
