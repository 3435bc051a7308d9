package dnsclient

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ecsdns/internal/dnswire"
)

// Pipeline errors.
var (
	ErrPipelineClosed = errors.New("dnsclient: pipeline closed")
	ErrTimeout        = errors.New("dnsclient: query timed out")
	errSendFailed     = errors.New("dnsclient: udp send failed")
)

// PipelineConfig tunes a Pipeline. The zero value is usable.
type PipelineConfig struct {
	// Shards is the number of independent shards — each with its own UDP
	// socket, transaction-ID space, and demux table (default GOMAXPROCS).
	// Queries are spread across shards by a hash of (question,
	// destination), so there is no cross-shard synchronization on the
	// send/receive hot path.
	Shards int
	// Timeout bounds each UDP attempt and the TCP fallback (default 3 s).
	Timeout time.Duration
}

// A Pipeline query makes pipelineRetries UDP attempts after the first,
// waiting pipelineBackoff before the first retry and twice as long
// before each later one, then falls back to TCP.
const (
	pipelineRetries = 2
	pipelineBackoff = 100 * time.Millisecond
)

// PipelineStats is a snapshot of a Pipeline's counters.
//
// Every submitted UDP attempt terminates in exactly one of Received,
// Timeouts, Aborted, or SendErrors, so after all in-flight queries
// drain
//
//	Sent == Received + Timeouts + Aborted + SendErrors
//
// — the accounting invariant the chaos tests assert under fault
// injection. (Attempts cut off before submission — pipeline closed —
// appear on neither side.)
type PipelineStats struct {
	// Sent counts UDP attempts submitted for sending (one per attempt;
	// kernel refusals are included here and show up in SendErrors).
	Sent int64
	// Received counts responses demuxed, validated, and delivered to
	// their waiting query.
	Received int64
	// Retries counts UDP re-attempts.
	Retries int64
	// TCPFallbacks counts queries that moved to TCP.
	TCPFallbacks int64
	// Mismatched counts datagrams that matched no in-flight query (late,
	// spoofed, malformed) or failed waiter-side validation (corrupted
	// response that landed on a live transaction ID).
	Mismatched int64
	// Timeouts counts UDP attempts that hit their per-attempt deadline.
	Timeouts int64
	// Aborted counts UDP attempts cut short by context cancellation.
	Aborted int64
	// SendErrors counts UDP attempts whose datagram the kernel refused.
	SendErrors int64
	// Truncated counts truncated responses received (each then moves to
	// TCP).
	Truncated int64
}

// pendingKey identifies one in-flight query within a shard: responses
// are demuxed by source address and transaction ID; the echoed question
// is validated waiter-side after the full decode.
type pendingKey struct {
	dest netip.AddrPort
	id   uint16
}

// waiter is the rendezvous between one in-flight attempt and the shard
// reader. The reader copies the raw response into buf and signals its
// length on ch; the waiting query decodes from buf.
// Waiters are pooled; the shard-lock-ordered register/unregister
// protocol guarantees at most one signal per registration, and the
// waiter is only pooled after that signal has been consumed or provably
// will never come.
type waiter struct {
	ch  chan int // response length
	buf []byte
}

var waiterPool = sync.Pool{
	New: func() any {
		return &waiter{ch: make(chan int, 1), buf: make([]byte, 0, 2048)}
	},
}

var timerPool sync.Pool

// acquireTimer checks a reset timer out of the pool.
func acquireTimer(d time.Duration) *time.Timer {
	t, ok := timerPool.Get().(*time.Timer)
	if !ok {
		return time.NewTimer(d)
	}
	t.Reset(d)
	return t
}

func releaseTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// bufPool holds the buffers Pipeline and Client pack queries into.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// putBuf zeroes the first n bytes of *bp, the ones handed out, and pools
// it: a read through a slice kept past the return sees zeros, never the
// next user's bytes.
func putBuf(pool *sync.Pool, bp *[]byte, n int) {
	clear((*bp)[:n])
	pool.Put(bp)
}

// shard is one independent lane of the pipeline: its own socket, ID
// space, and demux table. Nothing on the send/receive hot path is
// shared between shards.
type shard struct {
	p  *Pipeline
	pc *net.UDPConn

	mu      sync.Mutex
	rng     *rand.Rand
	pending map[pendingKey]*waiter
}

// Pipeline is the high-throughput counterpart of Client: a set of
// per-CPU shards, each multiplexing many in-flight queries over its own
// unconnected UDP socket, demuxing responses by (destination, ID) with
// waiter-side question validation, per-query deadlines,
// retry-with-backoff, and TCP fallback. All methods are safe for
// concurrent use.
type Pipeline struct {
	cfg    PipelineConfig
	shards []*shard
	closed atomic.Bool

	readers sync.WaitGroup

	hostMu    sync.RWMutex
	hostCache map[string]netip.AddrPort

	sent, received, retried, tcpFalls, mismatched atomic.Int64
	timeouts, aborted, sendErrors, truncated      atomic.Int64
}

// NewPipeline opens one socket per shard and starts the reader loops.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 3 * time.Second
	}
	p := &Pipeline{
		cfg:       cfg,
		hostCache: make(map[string]netip.AddrPort),
	}
	for i := 0; i < cfg.Shards; i++ {
		pc, err := net.ListenUDP("udp", nil)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("dnsclient: pipeline socket: %w", err)
		}
		s := &shard{
			p:       p,
			pc:      pc,
			rng:     rand.New(rand.NewSource(RandomSeed())),
			pending: make(map[pendingKey]*waiter),
		}
		p.shards = append(p.shards, s)
		p.readers.Add(1)
		go s.readLoop()
	}
	return p, nil
}

// Close shuts the sockets and waits for the reader loops. Queries still
// in flight fail with their per-attempt timeout.
func (p *Pipeline) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	for _, s := range p.shards {
		s.pc.Close()
	}
	p.readers.Wait()
	return nil
}

// Stats returns a snapshot of the pipeline counters, merged across
// shards.
func (p *Pipeline) Stats() PipelineStats {
	return PipelineStats{
		Sent:         p.sent.Load(),
		Received:     p.received.Load(),
		Retries:      p.retried.Load(),
		TCPFallbacks: p.tcpFalls.Load(),
		Mismatched:   p.mismatched.Load(),
		Timeouts:     p.timeouts.Load(),
		Aborted:      p.aborted.Load(),
		SendErrors:   p.sendErrors.Load(),
		Truncated:    p.truncated.Load(),
	}
}

// unmapAP canonicalizes v4-in-v6 mapped addresses so pendingKeys built
// on the send and receive sides always compare equal.
func unmapAP(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// resolveDest turns "host:port" into a netip.AddrPort. Literal
// addresses — the scan case — parse without allocation; hostnames go
// through the resolver once and are cached (bounded, reset at cap).
func (p *Pipeline) resolveDest(server string) (netip.AddrPort, error) {
	if ap, err := netip.ParseAddrPort(server); err == nil {
		return unmapAP(ap), nil
	}
	p.hostMu.RLock()
	ap, ok := p.hostCache[server]
	p.hostMu.RUnlock()
	if ok {
		return ap, nil
	}
	raddr, err := net.ResolveUDPAddr("udp", server)
	if err != nil {
		return netip.AddrPort{}, err
	}
	ap = unmapAP(raddr.AddrPort())
	p.hostMu.Lock()
	if len(p.hostCache) >= 1024 {
		clear(p.hostCache)
	}
	p.hostCache[server] = ap
	p.hostMu.Unlock()
	return ap, nil
}

// shardFor spreads queries across shards by an FNV-1a hash of the
// question name and destination, keeping a query's retries on one
// shard (same socket, same ID space) while adjacent queries fan out.
func (p *Pipeline) shardFor(q dnswire.Question, dest netip.AddrPort) *shard {
	if len(p.shards) == 1 {
		return p.shards[0]
	}
	h := uint32(2166136261)
	for i := 0; i < len(q.Name); i++ {
		h ^= uint32(q.Name[i])
		h *= 16777619
	}
	a16 := dest.Addr().As16()
	for _, b := range a16 {
		h ^= uint32(b)
		h *= 16777619
	}
	h ^= uint32(dest.Port())
	h *= 16777619
	return p.shards[h%uint32(len(p.shards))]
}

// readLoop demuxes datagrams arriving on this shard's socket. It peeks
// only the fixed header — the full decode happens on the waiter's
// goroutine, against the waiter's reused Message — and hands the raw
// bytes over through the waiter buffer.
func (s *shard) readLoop() {
	defer s.p.readers.Done()
	buf := make([]byte, 65535)
	for {
		n, ap, err := s.pc.ReadFromUDPAddrPort(buf)
		if err != nil {
			if s.p.closed.Load() {
				return
			}
			continue
		}
		s.deliver(buf[:n], ap)
	}
}

// deliver routes one raw datagram to the waiter registered under its
// (source, ID) — copying the bytes into the waiter's buffer, never
// parsing past the header on the reader goroutine.
func (s *shard) deliver(b []byte, ap netip.AddrPort) {
	id, isResponse, ok := dnswire.PeekHeader(b)
	if !ok || !isResponse {
		s.p.mismatched.Add(1)
		return
	}
	key := pendingKey{dest: unmapAP(ap), id: id}
	s.mu.Lock()
	w, ok := s.pending[key]
	if ok {
		delete(s.pending, key)
	}
	s.mu.Unlock()
	if !ok {
		s.p.mismatched.Add(1)
		return
	}
	w.buf = append(w.buf[:0], b...)
	w.ch <- len(w.buf) // buffered; the key was removed, so this is the only signal
}

// register allocates a transaction ID unique among this shard's
// in-flight queries to the same destination and installs the waiter.
func (s *shard) register(dest netip.AddrPort, w *waiter) (uint16, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.p.closed.Load() {
		return 0, ErrPipelineClosed
	}
	for tries := 0; tries < 256; tries++ {
		id := uint16(s.rng.Intn(1 << 16))
		key := pendingKey{dest: dest, id: id}
		if _, busy := s.pending[key]; busy {
			continue
		}
		s.pending[key] = w
		return id, nil
	}
	return 0, fmt.Errorf("dnsclient: no free query ID for %s", dest)
}

// reregister reinstalls a waiter under its previous key after a
// delivered-but-invalid response, so the attempt can keep waiting for
// the real answer. It fails if the ID has been reused meanwhile.
func (s *shard) reregister(key pendingKey, w *waiter) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.p.closed.Load() {
		return false
	}
	if _, busy := s.pending[key]; busy {
		return false
	}
	s.pending[key] = w
	return true
}

// unregister removes the key and reports whether it was still present.
// A false return means the reader has already taken the key and a
// signal on the waiter channel is imminent or delivered:
// the caller must consume it before releasing the waiter.
func (s *shard) unregister(key pendingKey) bool {
	s.mu.Lock()
	_, ok := s.pending[key]
	if ok {
		delete(s.pending, key)
	}
	s.mu.Unlock()
	return ok
}

// Exchange sends q to server ("host:port") and waits for the matching
// response, retrying over UDP with backoff and falling back to TCP on
// truncation or UDP exhaustion. The pipeline owns
// transaction IDs: q.ID is overwritten with a fresh ID per attempt,
// guaranteed unique among in-flight queries to the same destination on
// the query's shard. ctx cancellation aborts promptly.
func (p *Pipeline) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	resp := &dnswire.Message{}
	if err := p.ExchangeInto(ctx, server, q, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// ExchangeInto is Exchange decoding into a caller-owned Message, the
// zero-allocation hot path: with a reused resp, the steady-state UDP
// round trip performs no heap allocations. resp's previous contents are
// overwritten per the UnpackInto reuse contract.
func (p *Pipeline) ExchangeInto(ctx context.Context, server string, q *dnswire.Message, resp *dnswire.Message) error {
	if p.closed.Load() {
		return ErrPipelineClosed
	}
	dest, err := p.resolveDest(server)
	if err != nil {
		return err
	}
	question := q.Question()
	s := p.shardFor(question, dest)

	bp := bufPool.Get().(*[]byte)
	data, err := q.AppendPack((*bp)[:0])
	if err != nil {
		bufPool.Put(bp)
		return err
	}
	*bp = data[:0] // data may have outgrown the pooled backing array
	defer putBuf(&bufPool, bp, len(data))

	backoff := pipelineBackoff
	for attempt := 0; attempt <= pipelineRetries; attempt++ {
		if attempt > 0 {
			p.retried.Add(1)
			t := acquireTimer(backoff)
			select {
			case <-ctx.Done():
				releaseTimer(t)
				return ctx.Err()
			case <-t.C:
			}
			releaseTimer(t)
			backoff *= 2
		}
		err := s.attempt(ctx, dest, question, q, data, resp)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, ErrPipelineClosed) {
				return err
			}
			continue
		}
		if resp.Truncated {
			p.truncated.Add(1)
			p.tcpFalls.Add(1)
			return p.exchangeTCP(ctx, server, q, resp)
		}
		return nil
	}
	p.tcpFalls.Add(1)
	return p.exchangeTCP(ctx, server, q, resp)
}

// attempt registers one in-flight entry, fires the datagram, and waits
// for the demuxed response or the deadline. The raw response is decoded
// and validated here, on the waiting goroutine — a corrupted or
// colliding datagram re-registers the entry and keeps waiting.
func (s *shard) attempt(ctx context.Context, dest netip.AddrPort, question dnswire.Question, q *dnswire.Message, data []byte, resp *dnswire.Message) error {
	w := waiterPool.Get().(*waiter)
	id, err := s.register(dest, w)
	if err != nil {
		s.release(w)
		return err
	}
	key := pendingKey{dest: dest, id: id}
	q.ID = id
	dnswire.PatchID(data, id)

	s.p.sent.Add(1)
	if _, err := s.pc.WriteToUDPAddrPort(data, dest); err != nil {
		if s.unregister(key) {
			s.release(w)
		} else {
			// The reader has already committed a delivery to this
			// waiter; the bounded drain must finish before the waiter
			// can be pooled.
			s.consume(w)
		}
		s.p.sendErrors.Add(1)
		return fmt.Errorf("%w: %v", errSendFailed, err)
	}

	timer := acquireTimer(s.p.cfg.Timeout)
	defer releaseTimer(timer)
	for {
		select {
		case n := <-w.ch:
			ok, err := s.decodeInto(w, n, question, resp)
			if ok {
				s.release(w)
				return err
			}
			// Delivered but invalid: count it, put the entry back, and
			// keep waiting out the attempt deadline.
			s.p.mismatched.Add(1)
			if !s.reregister(key, w) {
				s.p.timeouts.Add(1)
				s.release(w)
				return fmt.Errorf("%w: %s %s", ErrTimeout, dest, question)
			}
		case <-timer.C:
			if s.unregister(key) {
				s.p.timeouts.Add(1)
				s.release(w)
				return fmt.Errorf("%w: %s %s", ErrTimeout, dest, question)
			}
			// Lost the race: a delivery is in flight. Consume it and
			// treat it as having arrived in time. The reader has already
			// committed it with no intervening I/O, so the receive
			// completes promptly; it must happen before the waiter can
			// be pooled.
			n := <-w.ch
			ok, err := s.decodeInto(w, n, question, resp)
			if ok {
				s.release(w)
				return err
			}
			s.p.mismatched.Add(1)
			s.p.timeouts.Add(1)
			s.release(w)
			return fmt.Errorf("%w: %s %s", ErrTimeout, dest, question)
		case <-ctx.Done():
			return s.abort(key, w, ctx.Err())
		}
	}
}

// abort settles an attempt cut short by context cancellation.
func (s *shard) abort(key pendingKey, w *waiter, err error) error {
	s.p.aborted.Add(1)
	if s.unregister(key) {
		s.release(w)
	} else {
		s.consume(w)
	}
	return err
}

// consume drains the in-flight signal the reader committed
// to this waiter, then pools it. Only call after unregister returned
// false.
func (s *shard) consume(w *waiter) {
	<-w.ch
	s.release(w)
}

// release pools a waiter whose signal has been consumed, or will never
// come. It zeroes the response bytes the reader handed over first, so a
// decode after the return reads an all-zero header, not the next
// attempt's datagram.
func (s *shard) release(w *waiter) {
	clear(w.buf)
	w.buf = w.buf[:0]
	waiterPool.Put(w)
}

// decodeInto parses the delivered datagram into resp and validates that
// it answers this attempt's question. ok reports whether the attempt is
// settled: false means the datagram was not a valid answer (undecodable
// or echoing a different question) and the attempt should keep waiting.
func (s *shard) decodeInto(w *waiter, n int, question dnswire.Question, resp *dnswire.Message) (bool, error) {
	if err := dnswire.UnpackInto(resp, w.buf[:n]); err != nil {
		return false, nil
	}
	if !resp.Response || resp.Question() != question {
		return false, nil
	}
	s.p.received.Add(1)
	return true, nil
}

// exchangeTCP runs the fallback on a per-query TCP connection, bounded
// by the pipeline timeout and any earlier ctx deadline, and cut short
// by a cancel of ctx, which it then returns.
func (p *Pipeline) exchangeTCP(ctx context.Context, server string, q *dnswire.Message, resp *dnswire.Message) error {
	d := net.Dialer{Timeout: p.cfg.Timeout}
	conn, err := d.DialContext(ctx, "tcp", server)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	defer conn.Close()
	deadline := time.Now().Add(p.cfg.Timeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	conn.SetDeadline(deadline)
	// A cancel after the dial expires the deadline, so the round trip
	// returns at once instead of waiting out Timeout.
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })
	defer stop()
	frame, err := q.AppendPack(make([]byte, 2, 512)) // re-pack: attempts rewrote the ID
	if err != nil {
		return err
	}
	respData, err := tcpRoundTrip(conn, frame)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	if err := dnswire.UnpackInto(resp, respData); err != nil {
		return err
	}
	if err := validate(q, resp); err != nil {
		return err
	}
	return nil
}
