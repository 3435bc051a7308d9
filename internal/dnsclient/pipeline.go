package dnsclient

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/udpio"
)

// Pipeline errors.
var (
	ErrPipelineClosed = errors.New("dnsclient: pipeline closed")
	ErrTimeout        = errors.New("dnsclient: query timed out")
	errSendFailed     = errors.New("dnsclient: udp send failed")
)

// PipelineConfig tunes a Pipeline. The zero value is usable.
type PipelineConfig struct {
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

// pendingKey identifies one in-flight query: responses are demuxed by
// source address and transaction ID; the echoed question is validated
// waiter-side after the full decode.
type pendingKey struct {
	dest netip.AddrPort
	id   uint16
}

// waiter is the rendezvous between one in-flight attempt and the
// reader. The reader copies the raw response into buf and signals its
// length on ch; the waiting query decodes from buf.
// Waiters are pooled; the lock-ordered register/unregister protocol
// guarantees at most one signal per registration, and the waiter is
// only pooled after that signal has been consumed or provably will
// never come. The attempt holding a waiter sends through its handle.
type waiter struct {
	ch  chan int // response length
	buf []byte

	tx    *udpio.Handle // a handle on txFor's socket
	txFor *Pipeline
}

// sender returns w's handle on p's socket, taking a new one when w last
// sent for another Pipeline.
func (w *waiter) sender(p *Pipeline) *udpio.Handle {
	if w.txFor != p {
		w.tx, w.txFor = p.rw.Clone(), p
	}
	return w.tx
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

// Pipeline is the high-throughput counterpart of Client: it multiplexes
// many in-flight queries over one unconnected UDP socket, demuxing
// responses by (destination, ID) with waiter-side question validation,
// per-query deadlines, retry-with-backoff, and TCP fallback. All methods
// are safe for concurrent use.
type Pipeline struct {
	cfg    PipelineConfig
	pc     *net.UDPConn
	rw     *udpio.Handle // readLoop's
	closed atomic.Bool

	reader sync.WaitGroup

	mu      sync.Mutex // guards rng and pending
	rng     *rand.Rand
	pending map[pendingKey]*waiter

	hostMu    sync.RWMutex
	hostCache map[string]netip.AddrPort

	sent, received, retried, tcpFalls, mismatched atomic.Int64
	timeouts, aborted, sendErrors, truncated      atomic.Int64
}

// NewPipeline opens the socket and starts the reader loop.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 3 * time.Second
	}
	pc, err := net.ListenUDP("udp", nil)
	if err != nil {
		return nil, fmt.Errorf("dnsclient: pipeline socket: %w", err)
	}
	rw, err := udpio.New(pc)
	if err != nil {
		pc.Close()
		return nil, fmt.Errorf("dnsclient: pipeline socket: %w", err)
	}
	p := &Pipeline{
		cfg:       cfg,
		pc:        pc,
		rw:        rw,
		rng:       rand.New(rand.NewSource(RandomSeed())),
		pending:   make(map[pendingKey]*waiter),
		hostCache: make(map[string]netip.AddrPort),
	}
	p.reader.Add(1)
	go p.readLoop()
	return p, nil
}

// Close shuts the socket and waits for the reader loop. Queries still
// in flight fail with their per-attempt timeout.
func (p *Pipeline) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	p.pc.Close()
	p.reader.Wait()
	return nil
}

// Stats returns a snapshot of the pipeline counters.
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

// readLoop demuxes datagrams arriving on the socket. It peeks
// only the fixed header — the full decode happens on the waiter's
// goroutine, against the waiter's reused Message — and hands the raw
// bytes over through the waiter buffer.
func (p *Pipeline) readLoop() {
	defer p.reader.Done()
	buf := make([]byte, 65535)
	for {
		n, ap, err := p.rw.ReadFrom(buf)
		if err != nil {
			if p.closed.Load() {
				return
			}
			continue
		}
		p.deliver(buf[:n], ap)
	}
}

// deliver routes one raw datagram to the waiter registered under its
// (source, ID) — copying the bytes into the waiter's buffer, never
// parsing past the header on the reader goroutine.
func (p *Pipeline) deliver(b []byte, ap netip.AddrPort) {
	id, isResponse, ok := dnswire.PeekHeader(b)
	if !ok || !isResponse {
		p.mismatched.Add(1)
		return
	}
	key := pendingKey{dest: unmapAP(ap), id: id}
	p.mu.Lock()
	w, ok := p.pending[key]
	if ok {
		delete(p.pending, key)
	}
	p.mu.Unlock()
	if !ok {
		p.mismatched.Add(1)
		return
	}
	w.buf = append(w.buf[:0], b...)
	w.ch <- len(w.buf) // buffered; the key was removed, so this is the only signal
}

// register allocates a transaction ID unique among the in-flight
// queries to the same destination and installs the waiter.
func (p *Pipeline) register(dest netip.AddrPort, w *waiter) (uint16, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return 0, ErrPipelineClosed
	}
	for tries := 0; tries < 256; tries++ {
		id := uint16(p.rng.Intn(1 << 16))
		key := pendingKey{dest: dest, id: id}
		if _, busy := p.pending[key]; busy {
			continue
		}
		p.pending[key] = w
		return id, nil
	}
	return 0, fmt.Errorf("dnsclient: no free query ID for %s", dest)
}

// reregister reinstalls a waiter under its previous key after a
// delivered-but-invalid response, so the attempt can keep waiting for
// the real answer. It fails if the ID has been reused meanwhile.
func (p *Pipeline) reregister(key pendingKey, w *waiter) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return false
	}
	if _, busy := p.pending[key]; busy {
		return false
	}
	p.pending[key] = w
	return true
}

// unregister removes the key and reports whether it was still present.
// A false return means the reader has already taken the key and a
// signal on the waiter channel is imminent or delivered:
// the caller must consume it before releasing the waiter.
func (p *Pipeline) unregister(key pendingKey) bool {
	p.mu.Lock()
	_, ok := p.pending[key]
	if ok {
		delete(p.pending, key)
	}
	p.mu.Unlock()
	return ok
}

// Exchange sends q to server ("host:port") and waits for the matching
// response, retrying over UDP with backoff and falling back to TCP on
// truncation or UDP exhaustion. The pipeline owns
// transaction IDs: q.ID is overwritten with a fresh ID per attempt,
// guaranteed unique among in-flight queries to the same destination.
// ctx cancellation aborts promptly.
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
		err := p.attempt(ctx, dest, question, q, data, resp)
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
func (p *Pipeline) attempt(ctx context.Context, dest netip.AddrPort, question dnswire.Question, q *dnswire.Message, data []byte, resp *dnswire.Message) error {
	w := waiterPool.Get().(*waiter)
	id, err := p.register(dest, w)
	if err != nil {
		p.release(w)
		return err
	}
	key := pendingKey{dest: dest, id: id}
	q.ID = id
	dnswire.PatchID(data, id)

	p.sent.Add(1)
	if _, err := w.sender(p).WriteTo(data, dest); err != nil {
		if p.unregister(key) {
			p.release(w)
		} else {
			// The reader has already committed a delivery to this
			// waiter; the bounded drain must finish before the waiter
			// can be pooled.
			p.consume(w)
		}
		p.sendErrors.Add(1)
		return fmt.Errorf("%w: %v", errSendFailed, err)
	}

	timer := acquireTimer(p.cfg.Timeout)
	defer releaseTimer(timer)
	for {
		select {
		case n := <-w.ch:
			ok, err := p.decodeInto(w, n, question, resp)
			if ok {
				p.release(w)
				return err
			}
			// Delivered but invalid: count it, put the entry back, and
			// keep waiting out the attempt deadline.
			p.mismatched.Add(1)
			if !p.reregister(key, w) {
				p.timeouts.Add(1)
				p.release(w)
				return fmt.Errorf("%w: %s %s", ErrTimeout, dest, question)
			}
		case <-timer.C:
			if p.unregister(key) {
				p.timeouts.Add(1)
				p.release(w)
				return fmt.Errorf("%w: %s %s", ErrTimeout, dest, question)
			}
			// Lost the race: a delivery is in flight. Consume it and
			// treat it as having arrived in time. The reader has already
			// committed it with no intervening I/O, so the receive
			// completes promptly; it must happen before the waiter can
			// be pooled.
			n := <-w.ch
			ok, err := p.decodeInto(w, n, question, resp)
			if ok {
				p.release(w)
				return err
			}
			p.mismatched.Add(1)
			p.timeouts.Add(1)
			p.release(w)
			return fmt.Errorf("%w: %s %s", ErrTimeout, dest, question)
		case <-ctx.Done():
			return p.abort(key, w, ctx.Err())
		}
	}
}

// abort settles an attempt cut short by context cancellation.
func (p *Pipeline) abort(key pendingKey, w *waiter, err error) error {
	p.aborted.Add(1)
	if p.unregister(key) {
		p.release(w)
	} else {
		p.consume(w)
	}
	return err
}

// consume drains the in-flight signal the reader committed
// to this waiter, then pools it. Only call after unregister returned
// false.
func (p *Pipeline) consume(w *waiter) {
	<-w.ch
	p.release(w)
}

// release pools a waiter whose signal has been consumed, or will never
// come. It zeroes the response bytes the reader handed over first, so a
// decode after the return reads an all-zero header, not the next
// attempt's datagram.
func (p *Pipeline) release(w *waiter) {
	clear(w.buf)
	w.buf = w.buf[:0]
	waiterPool.Put(w)
}

// decodeInto parses the delivered datagram into resp and validates that
// it answers this attempt's question. ok reports whether the attempt is
// settled: false means the datagram was not a valid answer (undecodable
// or echoing a different question) and the attempt should keep waiting.
func (p *Pipeline) decodeInto(w *waiter, n int, question dnswire.Question, resp *dnswire.Message) (bool, error) {
	if err := dnswire.UnpackInto(resp, w.buf[:n]); err != nil {
		return false, nil
	}
	if !resp.Response || resp.Question() != question {
		return false, nil
	}
	p.received.Add(1)
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
