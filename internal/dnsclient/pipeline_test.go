package dnsclient

import (
	"context"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"sync"
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
	h.seen[name]++
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
	p := newTestPipeline(t, PipelineConfig{Shards: 3, Timeout: 2 * time.Second})

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
	p := newTestPipeline(t, PipelineConfig{
		Shards:  2,
		Timeout: 300 * time.Millisecond,
		Backoff: 10 * time.Millisecond,
	})
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
	st := p.Stats()
	if st.Retries < 1 || st.TCPFallbacks != 1 {
		t.Fatalf("stats = %+v, want ≥1 retry and exactly 1 TCP fallback", st)
	}
}

func TestPipelineTimeoutNoFallback(t *testing.T) {
	// A handler that always drops, with TCP fallback disabled: the
	// exchange must fail with a timeout after the single attempt.
	h := &nameHashHandler{drop: 1 << 30}
	addr := startPipelineServer(t, h)
	p := newTestPipeline(t, PipelineConfig{
		Shards: 1, Timeout: 100 * time.Millisecond,
		Retries: NoRetries, NoTCPFallback: true,
	})
	start := time.Now()
	_, err := p.Exchange(context.Background(), addr, pipeQuery("drop.pipe.test."))
	if err == nil {
		t.Fatal("blackholed query succeeded")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("timeout took %v, want ~100ms", elapsed)
	}
}

func TestPipelineContextCancel(t *testing.T) {
	h := &nameHashHandler{drop: 1 << 30}
	addr := startPipelineServer(t, h)
	p := newTestPipeline(t, PipelineConfig{Shards: 1, Timeout: 5 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	stop := time.AfterFunc(50*time.Millisecond, cancel)
	defer stop.Stop()
	start := time.Now()
	_, err := p.Exchange(ctx, addr, pipeQuery("cancel.pipe.test."))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestAbortDrainsDeliveredWaiter covers the guard-false path of the
// waiter pool: the reader took the key and signalled the waiter before
// the attempt was cancelled, so abort must consume that signal before it
// pools the waiter. A waiter pooled with the signal still buffered hands
// the next attempt to draw it a stale response length at once.
func TestAbortDrainsDeliveredWaiter(t *testing.T) {
	s := &shard{
		p:       &Pipeline{},
		rng:     rand.New(rand.NewSource(1)),
		pending: make(map[pendingKey]*waiter),
	}
	dest := netip.MustParseAddrPort("192.0.2.1:53")
	w := &waiter{ch: make(chan int, 1), buf: make([]byte, 0, 64)}
	id, err := s.register(dest, w)
	if err != nil {
		t.Fatal(err)
	}
	// Play the reader: a response header carrying the registered ID.
	wire, err := (&dnswire.Message{Header: dnswire.Header{ID: id, Response: true}}).Pack()
	if err != nil {
		t.Fatal(err)
	}
	s.deliver(wire, dest)
	if len(s.pending) != 0 || len(w.ch) != 1 {
		t.Fatalf("deliver left %d pending keys and %d signals, want 0 and 1", len(s.pending), len(w.ch))
	}
	if err := s.abort(pendingKey{dest: dest, id: id}, w, context.Canceled); err != context.Canceled {
		t.Fatalf("abort returned %v, want the cancellation cause", err)
	}
	if len(w.ch) != 0 {
		t.Fatal("abort pooled a waiter whose delivered signal was never consumed")
	}
	if got := s.p.Stats().Aborted; got != 1 {
		t.Fatalf("Aborted = %d, want 1", got)
	}
}

func TestPipelineClosed(t *testing.T) {
	p, err := NewPipeline(PipelineConfig{Shards: 1})
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
