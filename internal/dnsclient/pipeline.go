package dnsclient

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/stats"
	"ecsdns/internal/udpio"
)

// Pipeline errors.
var (
	ErrPipelineClosed = errors.New("dnsclient: pipeline closed")
	// ErrNoTarget is what a Sweep's probe returns when its next target
	// has not come yet.
	ErrNoTarget = errors.New("dnsclient: no target yet")
)

// PipelineConfig tunes a Pipeline. The zero value is usable.
type PipelineConfig struct {
	// Timeout bounds each UDP attempt and the TCP fallback (default 3 s).
	Timeout time.Duration
}

// A Pipeline query makes pipelineRetries UDP attempts after the first,
// waiting pipelineBackoff before the first retry and twice as long
// before each later one, then falls back to TCP.
//
// The reader takes up to readBatch datagrams in one recvmmsg, and a
// sweep sends up to sendBatch attempts in one sendmmsg (DESIGN.md §11
// has why these sizes).
const (
	pipelineRetries = 2
	pipelineBackoff = 100 * time.Millisecond
	readBatch       = 32
	sendBatch       = 64
)

// PipelineStats is a snapshot of a Pipeline's counters. Every submitted
// UDP attempt terminates in exactly one of Received, Timeouts, Aborted
// and SendErrors, which Check states and the chaos tests assert under
// fault injection. (Attempts cut off before submission — pipeline
// closed — appear on neither side.)
type PipelineStats struct {
	// Sent counts UDP attempts submitted for sending (one per attempt;
	// kernel refusals are included here and show up in SendErrors).
	Sent int64
	// Received counts responses demuxed, validated, and delivered to
	// their probe.
	Received int64
	// Retries counts UDP re-attempts.
	Retries int64
	// TCPFallbacks counts queries that moved to TCP.
	TCPFallbacks int64
	// Mismatched counts datagrams that matched no in-flight query (late,
	// spoofed, malformed) or failed the sweep's validation (corrupted
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

// Check returns nil when every UDP attempt sent has terminated in one
// class, and otherwise an error with the numbers. It holds once every
// query in flight has drained.
func (st PipelineStats) Check() error {
	return stats.Partition("Sent = Received + Timeouts + Aborted + SendErrors",
		st.Sent, st.Received, st.Timeouts, st.Aborted, st.SendErrors)
}

// pendingBuckets is the size of the table of attempts in flight. IDs
// are drawn at random, so their low bits spread the attempts evenly
// over it, and at a window of 64 nearly every chain is empty or one long.
const pendingBuckets = 1 << 12

// Pipeline is the high-throughput counterpart of Client: it multiplexes
// many in-flight queries over one unconnected UDP socket, demuxing
// responses by (source, ID) with question validation, per-attempt
// deadlines, retry-with-backoff, and TCP fallback. Sweep runs a whole
// scan from the caller's goroutine; Exchange is a sweep of one. All
// methods are safe for concurrent use.
type Pipeline struct {
	cfg    PipelineConfig
	pc     *udpio.UDPConn
	rx     *udpio.Reader // readLoop's
	closed atomic.Bool

	reader sync.WaitGroup

	// mu guards rng, pending, and every sweep's ready list and wake-up
	// state: the reader takes a key and hands its slot to the sweep in
	// one critical section.
	mu  sync.Mutex
	rng *rand.Rand
	// pending files each attempt in flight under its (destination, ID)
	// key: in the chain of bucket ID mod pendingBuckets, linked through
	// slot.chain. An ID is unique among the attempts to one destination.
	pending [pendingBuckets]*slot

	ones sync.Pool // *sweep of one slot, for Exchange; Get may find none

	sent, received, retried, tcpFalls, mismatched atomic.Int64
	timeouts, aborted, sendErrors, truncated      atomic.Int64
}

// NewPipeline opens the socket and starts the reader loop.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 3 * time.Second
	}
	pc, err := udpio.ListenUDP(netip.AddrPort{}) // every local address, both families
	if err != nil {
		return nil, fmt.Errorf("dnsclient: pipeline socket: %w", err)
	}
	rx, err := udpio.NewReader(pc, readBatch)
	if err != nil {
		pc.Close()
		return nil, fmt.Errorf("dnsclient: pipeline socket: %w", err)
	}
	p := &Pipeline{
		cfg: cfg,
		pc:  pc,
		rx:  rx,
		rng: rand.New(rand.NewSource(RandomSeed())),
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

// unmapAP canonicalizes v4-in-v6 mapped addresses so the keys of the
// send and receive sides always compare equal.
func unmapAP(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// readLoop takes the datagrams arriving on the socket, every one queued
// in one read, and delivers them. It closes the reader after its last
// read.
func (p *Pipeline) readLoop() {
	defer p.reader.Done()
	defer p.rx.Close()
	var woken []*sweep
	for {
		n, err := p.rx.Read()
		if err != nil {
			if p.closed.Load() {
				return
			}
			continue
		}
		woken = p.deliver(n, woken[:0])
		for _, s := range woken {
			s.wake <- struct{}{}
		}
	}
}

// deliver hands each datagram of the reader's last batch on under one
// hold of mu, and appends to woken each sweep the batch found sleeping,
// once: the sends on wake are the caller's, after the lock.
func (p *Pipeline) deliver(n int, woken []*sweep) []*sweep {
	unmatched := 0
	p.mu.Lock()
	for i := 0; i < n; i++ {
		b, ap, _ := p.rx.Datagram(i) // a cut datagram is nil: no header
		if s, ok := p.deliverLocked(b, ap); !ok {
			unmatched++
		} else if s != nil {
			woken = append(woken, s)
		}
	}
	p.mu.Unlock()
	if unmatched > 0 {
		p.mismatched.Add(int64(unmatched))
	}
	return woken
}

// deliverLocked hands one raw datagram to the slot registered under its
// (source, ID): it takes the key, copies the bytes into the slot and
// puts the slot on its sweep's ready list, so a slot whose key is gone
// is on that list until its sweep takes it. It reports whether the
// datagram matched, and the slot's sweep if that was sleeping and must
// be woken. Nothing past the header is parsed here: the sweep decodes.
func (p *Pipeline) deliverLocked(b []byte, ap netip.AddrPort) (wake *sweep, matched bool) {
	id, isResponse, ok := dnswire.PeekHeader(b)
	if !ok || !isResponse {
		return nil, false
	}
	sl := p.takeLocked(unmapAP(ap), id)
	if sl == nil {
		return nil, false
	}
	sl.buf = append(sl.buf[:0], b...)
	sl.sw.ready = append(sl.sw.ready, sl)
	if sl.sw.wakeLocked() {
		return sl.sw, true
	}
	return nil, true
}

// findLocked returns the pointer to the chain link that holds the
// attempt to dest under id, or to the chain's nil end if there is none.
func (p *Pipeline) findLocked(dest netip.AddrPort, id uint16) **slot {
	link := &p.pending[id%pendingBuckets]
	for *link != nil && ((*link).id != id || (*link).dest != dest) {
		link = &(*link).chain
	}
	return link
}

// takeLocked unfiles and returns the attempt to dest under id, or nil.
func (p *Pipeline) takeLocked(dest netip.AddrPort, id uint16) *slot {
	link := p.findLocked(dest, id)
	sl := *link
	if sl != nil {
		*link, sl.chain = sl.chain, nil
	}
	return sl
}

// fileLocked files sl under its key, which no attempt in flight holds.
func (p *Pipeline) fileLocked(sl *slot) {
	head := &p.pending[sl.id%pendingBuckets]
	sl.chain, *head = *head, sl
}

// register draws a transaction ID unique among the attempts in flight
// to sl's destination and files sl under it.
func (p *Pipeline) register(sl *slot) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return ErrPipelineClosed
	}
	for tries := 0; tries < 256; tries++ {
		id := uint16(p.rng.Intn(1 << 16))
		if *p.findLocked(sl.dest, id) != nil {
			continue
		}
		sl.id = id
		p.fileLocked(sl)
		return nil
	}
	return fmt.Errorf("dnsclient: no free query ID for %s", sl.dest)
}

// reregister files sl again under the key the reader took for a
// delivered-but-invalid response, so the attempt can keep waiting for
// the real answer. It fails if the ID has been reused meanwhile.
func (p *Pipeline) reregister(sl *slot) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() || *p.findLocked(sl.dest, sl.id) != nil {
		return false
	}
	p.fileLocked(sl)
	return true
}

// withdraw ends sl's attempt from the sweep's side: it takes sl's key
// back or, when the reader took it first, takes sl off the ready list
// the reader put it on. Either way no delivery for the attempt is left
// to come, and the slot can be reused.
func (p *Pipeline) withdraw(sl *slot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if link := p.findLocked(sl.dest, sl.id); *link == sl {
		*link, sl.chain = sl.chain, nil
		return
	}
	r := sl.sw.ready
	for i := range r {
		if r[i] == sl {
			sl.sw.ready = append(r[:i], r[i+1:]...)
			return
		}
	}
}

// Exchange sends q to server ("ip:port") and waits for the matching
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
// overwritten per the UnpackInto reuse contract. It is a sweep of one
// on a pooled sweep whose slot holds q and resp until it returns.
func (p *Pipeline) ExchangeInto(ctx context.Context, server string, q *dnswire.Message, resp *dnswire.Message) error {
	if p.closed.Load() {
		return ErrPipelineClosed
	}
	dest, err := serverAddr(server)
	if err != nil {
		return err
	}
	s, _ := p.ones.Get().(*sweep)
	if s == nil {
		s = p.newOne()
	}
	defer p.ones.Put(s)
	sl := &s.slots[0]
	sl.q, sl.resp, s.dest, s.ended = q, resp, unmapAP(dest), false
	err = s.run(ctx, s.probeOne, s.doneOne)
	sl.q, sl.resp = &sl.query, &sl.answer
	if s.ended {
		err, s.err = s.err, nil
	}
	return err
}

// Sweep runs probes from the caller's goroutine, up to window of them in
// flight, until probe reports the end of its input by returning io.EOF;
// the length of that input need not be known. Each probe runs in one of
// window slots, numbered from 0, and a slot takes its next probe only
// once done has returned for its last, so a caller keeps what it needs
// of a probe in flight in a table of window entries. Probes start in
// turn: the sweep calls probe(slot, q), which fills in q — a Message of
// the slot's, as its last probe left it — and names the server to ask.
// A probe whose input has not come yet returns ErrNoTarget, and the
// sweep takes answers and deadlines until a send on ready says it has
// (or until something else wakes it), then calls probe again. probe is
// asked whenever a slot is free. rate, when positive, caps the probes
// whose first datagram goes out per second, with a burst of window: a
// probe that finds the bucket empty waits in its slot until its token
// comes, so the sweep learns that its input has ended as soon as a slot
// is free. The sweep packs q, owns its ID, and retries and falls back to
// TCP as Exchange does. When the probe has ended, done(slot, resp, sent,
// err) is called from the caller's goroutine with the answer, which is
// only valid until done returns, or with the error that ended the probe,
// probe's own included; sent is when the probe's first datagram went
// out, zero if none did. done is called once for every call of probe
// that did not return io.EOF or ErrNoTarget.
//
// A cancel of ctx drains the sweep: it starts no new probe and no new
// attempt (no retry, no TCP fallback), and each attempt in flight ends
// at its answer or at its deadline; a probe cut short that way ends with
// ctx.Err(). Sweep returns once every started probe has ended: nil, or
// ctx's error when a cancel stopped it.
func (p *Pipeline) Sweep(ctx context.Context, window int, rate float64, ready <-chan struct{},
	probe func(slot int, q *dnswire.Message) (netip.AddrPort, error),
	done func(slot int, resp *dnswire.Message, sent time.Time, err error)) error {
	s := p.newSweep(max(1, window))
	defer s.timer.Stop()
	s.rate, s.input = rate, ready
	return s.run(ctx, probe, done)
}

// slotState says where a slot's probe is.
type slotState uint8

const (
	slotFree    slotState = iota
	slotWaiting           // an attempt is in flight: its key is in pending or its answer on the ready list
	slotBackoff           // the next attempt is due at due; the first one, when it waits for a token
	slotTCP               // the fallback runs; its goroutine posts the slot to the ready list when done
)

// slot is one probe in flight: its query packed, where it goes, which
// attempt it is on and until when.
type slot struct {
	sw      *sweep
	state   slotState
	num     int              // the slot's number, which probe and done hear
	q, resp *dnswire.Message // query and answer: the slot's own, or Exchange's caller's
	dest    netip.AddrPort
	id      uint16
	chain   *slot // the next attempt filed in the same pending bucket
	attempt int   // UDP attempts made before the current one
	wire    []byte
	buf     []byte // the answer, copied in by the reader once it has taken the key
	err     error  // the TCP fallback's
	// question is what an answer must echo.
	question dnswire.Question
	// sent is when the probe's first datagram went out.
	sent time.Time

	// due is the current attempt's deadline, or when the next attempt is
	// due; the sweep's due list is in due order.
	due        time.Time
	prev, next *slot

	query, answer dnswire.Message
}

// sweep is the event loop behind Sweep and Exchange. It runs on its
// caller's goroutine and owns its slots; the reader, the TCP fallbacks,
// the timer and a cancel of ctx only post to it, and it sleeps on wake
// until one does, or, while its probe waits for input, until ready says
// the input has come.
type sweep struct {
	p     *Pipeline
	slots []slot
	free  []*slot
	busy  int
	batch []*slot // the ready list last taken

	// out batches the attempts sent since the last flush, and queued
	// holds their slots in the same order; refuse, bound once, ends the
	// attempt of queued[i] when out reports entry i refused.
	out    *udpio.Writer
	queued []*slot
	refuse func(i int, err error)

	// head and tail are the due list: the slots waiting out an attempt,
	// a backoff or a token. Every attempt's deadline is its send time
	// plus Timeout, so attempts mostly join at the tail, and one timer,
	// set for the head, serves them all.
	head, tail *slot
	timer      *time.Timer
	armed      time.Time // when the timer goes off

	// rate, when positive, is a token bucket of window tokens that each
	// probe takes one of, refilled at rate per second; tokens goes below
	// zero by the probes waiting for theirs.
	rate     float64
	tokens   float64
	refilled time.Time

	ctx    context.Context
	done   func(slot int, resp *dnswire.Message, sent time.Time, err error)
	stop   error           // why no probe or attempt starts any more
	eof    bool            // probe has reported the end of its input
	hungry bool            // probe had no target this turn: the sweep waits on input too
	abort  bool            // Exchange's: a cancel withdraws the attempt in flight
	input  <-chan struct{} // Sweep's ready: the probe's input has come

	// wake holds at most one token: only a post that finds the sweep
	// sleeping sends one.
	wake chan struct{}

	// Guarded by p.mu.
	ready    []*slot // slots answered by the reader or done with TCP
	poked    bool    // the timer went off or ctx was cancelled
	sleeping bool    // the sweep waits on wake (and input)

	// Exchange's sweep of one: where its probe goes, and how it ended.
	dest     netip.AddrPort
	err      error
	ended    bool
	probeOne func(int, *dnswire.Message) (netip.AddrPort, error)
	doneOne  func(int, *dnswire.Message, time.Time, error)
}

func (p *Pipeline) newSweep(window int) *sweep {
	s := &sweep{
		p:      p,
		slots:  make([]slot, window),
		free:   make([]*slot, 0, window),
		batch:  make([]*slot, 0, window),
		out:    udpio.NewWriter(p.pc, min(window, sendBatch)),
		queued: make([]*slot, 0, min(window, sendBatch)),
		ready:  make([]*slot, 0, window),
		wake:   make(chan struct{}, 1),
	}
	s.refuse = func(i int, _ error) { s.unsent(s.queued[i]) }
	s.timer = time.AfterFunc(time.Hour, s.poke)
	s.timer.Stop()
	for i := range s.slots {
		sl := &s.slots[i]
		sl.sw, sl.num = s, i
		sl.q, sl.resp = &sl.query, &sl.answer
	}
	for i := len(s.slots) - 1; i >= 0; i-- {
		s.free = append(s.free, &s.slots[i]) // slot 0 is taken first
	}
	return s
}

// newOne makes a sweep of one for Exchange, whose probe asks s.dest once
// and whose done keeps the error.
func (p *Pipeline) newOne() *sweep {
	s := p.newSweep(1)
	s.abort = true
	s.probeOne = func(int, *dnswire.Message) (netip.AddrPort, error) {
		if s.ended {
			return netip.AddrPort{}, io.EOF
		}
		return s.dest, nil
	}
	s.doneOne = func(_ int, _ *dnswire.Message, _ time.Time, err error) { s.err, s.ended = err, true }
	return s
}

func (s *sweep) run(ctx context.Context,
	probe func(int, *dnswire.Message) (netip.AddrPort, error),
	done func(int, *dnswire.Message, time.Time, error)) error {
	s.ctx, s.done, s.stop, s.eof = ctx, done, nil, false
	defer func() { s.ctx, s.done = nil, nil }()
	if ctx.Done() != nil {
		defer context.AfterFunc(ctx, s.poke)()
	}
	if s.rate > 0 {
		s.tokens, s.refilled = float64(len(s.slots)), time.Now()
	}
	for {
		s.hungry = false
		for s.stop == nil && !s.eof && !s.hungry && len(s.free) > 0 {
			if err := ctx.Err(); err != nil {
				s.halt(err)
				break
			}
			s.start(probe)
		}
		s.flush()
		if s.busy == 0 && (s.stop != nil || s.eof) {
			return s.stop
		}
		s.arm()
		s.collect()
	}
}

// maxTokenWait bounds a wait for a token: a wait past a Duration's range
// would convert to one in the past.
const maxTokenWait = time.Duration(1 << 62)

// take takes a token for a probe about to start, refilling the bucket
// first, and returns the zero time if the bucket held it, or else when
// it comes: the bucket is then in debt by the probes that wait for one.
func (s *sweep) take() time.Time {
	if s.rate <= 0 {
		return time.Time{}
	}
	now := time.Now()
	s.tokens = min(s.tokens+now.Sub(s.refilled).Seconds()*s.rate, float64(len(s.slots)))
	s.refilled = now
	if s.tokens--; s.tokens >= 0 {
		return time.Time{}
	}
	return now.Add(time.Duration(min(-s.tokens/s.rate*float64(time.Second), float64(maxTokenWait))))
}

// start runs the next probe in a free slot and sends its first attempt,
// or, while the bucket holds no token for it, puts it on the due list
// for when one comes; or it notes that the input has ended or not come
// yet.
func (s *sweep) start(probe func(int, *dnswire.Message) (netip.AddrPort, error)) {
	sl := s.free[len(s.free)-1]
	dest, err := probe(sl.num, sl.q)
	switch err {
	case io.EOF:
		s.eof = true
		return
	case ErrNoTarget:
		s.hungry = true
		return
	}
	s.free = s.free[:len(s.free)-1]
	s.busy++
	sl.attempt, sl.sent = 0, time.Time{}
	if sl.wire == nil {
		// A slot's buffers come with its first probe: a window wider
		// than its input leaves the spare slots without them.
		sl.wire, sl.buf = make([]byte, 0, 512), make([]byte, 0, 512)
	}
	if err == nil {
		sl.wire, err = sl.q.AppendPack(sl.wire[:0])
	}
	if err != nil {
		s.finish(sl, err)
		return
	}
	sl.dest, sl.question = unmapAP(dest), sl.q.Question()
	if token := s.take(); !token.IsZero() {
		sl.state = slotBackoff
		s.queue(sl, token)
		return
	}
	s.send(sl)
}

// send makes sl's next UDP attempt: a fresh ID patched into the packed
// query, and the datagram queued for the next flush, which comes before
// the sweep waits or once sendBatch attempts are queued.
func (s *sweep) send(sl *slot) {
	p := s.p
	sl.state = slotWaiting
	if err := p.register(sl); err != nil {
		if err == ErrPipelineClosed {
			s.finish(sl, err)
		} else {
			s.failed(sl)
		}
		return
	}
	sl.q.ID = sl.id
	dnswire.PatchID(sl.wire, sl.id)
	p.sent.Add(1)
	if err := s.out.Add(sl.wire, sl.dest); err != nil {
		s.unsent(sl)
		return
	}
	s.queued = append(s.queued, sl)
	if len(s.queued) == cap(s.queued) {
		s.flush()
	}
}

// flush sends the queued attempts in one sendmmsg and puts each on the
// due list, all with a deadline from one clock read, which is also when
// a probe's first attempt went out. An attempt the kernel refused has
// already moved on through unsent.
func (s *sweep) flush() {
	if len(s.queued) == 0 {
		return
	}
	s.out.Flush(s.refuse)
	now := time.Now()
	due := now.Add(s.p.cfg.Timeout)
	for _, sl := range s.queued {
		if sl.sent.IsZero() {
			sl.sent = now
		}
		if sl.state == slotWaiting {
			s.queue(sl, due)
		}
	}
	s.queued = s.queued[:0]
}

// unsent ends an attempt whose datagram was refused as a refused sendto
// always has: its key is withdrawn, it counts as a SendErrors, and the
// slot goes on to its backoff or to TCP.
func (s *sweep) unsent(sl *slot) {
	s.p.withdraw(sl)
	s.p.sendErrors.Add(1)
	s.failed(sl)
}

// collect takes what has been posted to the sweep, waiting for it if
// nothing has been (or, while the sweep is hungry, for input), and acts
// on it: answers first, then a cancel, then every deadline that has
// passed.
func (s *sweep) collect() {
	p := s.p
	p.mu.Lock()
	if len(s.ready) == 0 && !s.poked {
		s.sleeping = true
		p.mu.Unlock()
		var input <-chan struct{} // nil, which never fires, unless hungry
		if s.hungry {
			input = s.input
		}
		select {
		case <-s.wake:
			p.mu.Lock()
		case <-input:
			p.mu.Lock()
			if !s.sleeping {
				// A post came too, and its poster sends on wake once it
				// has let go of mu: take that token, so wake holds none.
				<-s.wake
			}
			s.sleeping = false
		}
	}
	s.poked = false
	s.batch, s.ready = s.ready, s.batch[:0]
	p.mu.Unlock()

	for _, sl := range s.batch {
		s.receive(sl)
	}
	if s.stop == nil {
		if err := s.ctx.Err(); err != nil {
			s.halt(err)
		}
	}
	now := time.Now()
	for s.head != nil && !s.head.due.After(now) {
		s.expire(s.head)
	}
}

// receive acts on a slot the reader answered or the TCP fallback
// finished.
func (s *sweep) receive(sl *slot) {
	p := s.p
	if sl.state == slotTCP {
		s.finish(sl, sl.err)
		return
	}
	// An answer echoes the question sent: given its name to keep, the
	// decode makes no string of its own for the question or for the
	// records it owns.
	sl.resp.Questions = append(sl.resp.Questions[:0], sl.question)
	if err := dnswire.UnpackInto(sl.resp, sl.buf); err != nil ||
		!sl.resp.Response || sl.resp.Question() != sl.question {
		// Not this attempt's answer: count it, file the key again, and
		// keep waiting out the deadline.
		p.mismatched.Add(1)
		if !p.reregister(sl) {
			s.unqueue(sl)
			p.timeouts.Add(1)
			s.failed(sl)
		}
		return
	}
	s.unqueue(sl)
	p.received.Add(1)
	switch {
	case !sl.resp.Truncated:
		s.finish(sl, nil)
	case s.stop != nil:
		p.truncated.Add(1)
		s.finish(sl, s.stop)
	default:
		p.truncated.Add(1)
		p.tcpFalls.Add(1)
		s.fallback(sl)
	}
}

// expire acts on the head of the due list, whose time has come.
func (s *sweep) expire(sl *slot) {
	s.unqueue(sl)
	if sl.state == slotBackoff {
		s.send(sl)
		return
	}
	s.p.withdraw(sl)
	s.p.timeouts.Add(1)
	s.failed(sl)
}

// failed moves sl on after an attempt that brought no answer: to the
// next attempt after its backoff, to TCP once the retries are spent, or
// to its end once the sweep has stopped.
func (s *sweep) failed(sl *slot) {
	switch {
	case s.stop != nil:
		s.finish(sl, s.stop)
	case sl.attempt < pipelineRetries:
		s.p.retried.Add(1)
		sl.state = slotBackoff
		s.queue(sl, time.Now().Add(pipelineBackoff<<sl.attempt))
		sl.attempt++
	default:
		s.p.tcpFalls.Add(1)
		s.fallback(sl)
	}
}

// halt stops the sweep starting anything, probe or attempt. A slot
// waiting for its next attempt ends now with err. An attempt in flight
// runs to its answer or its deadline, unless the sweep is Exchange's,
// whose caller has given up: then it is withdrawn and counted Aborted.
func (s *sweep) halt(err error) {
	s.stop = err
	for sl := s.head; sl != nil; {
		next := sl.next
		switch {
		case sl.state == slotBackoff:
			s.unqueue(sl)
			s.finish(sl, err)
		case s.abort:
			s.unqueue(sl)
			s.p.withdraw(sl)
			s.p.aborted.Add(1)
			s.finish(sl, err)
		}
		sl = next
	}
}

// fallback runs sl's query over TCP on a goroutine of its own, so one
// slow server never holds up the window, and posts the slot back when
// the exchange is over. A sweep's cancel lets a fallback already running
// finish; Exchange's cuts it short.
func (s *sweep) fallback(sl *slot) {
	sl.state = slotTCP
	ctx := s.ctx
	if !s.abort {
		ctx = context.WithoutCancel(ctx)
	}
	go func() {
		sl.err = s.p.exchangeTCP(ctx, sl.dest, sl.q, sl.resp)
		s.post(sl)
	}()
}

// finish ends sl's probe: done hears how, and the slot is free.
func (s *sweep) finish(sl *slot, err error) {
	if err != nil {
		s.done(sl.num, nil, sl.sent, err)
	} else {
		s.done(sl.num, sl.resp, sl.sent, nil)
	}
	sl.state, sl.err = slotFree, nil
	s.free = append(s.free, sl)
	s.busy--
}

// post puts sl on the ready list and wakes the sweep; with sl nil it is
// poke.
func (s *sweep) post(sl *slot) {
	s.p.mu.Lock()
	if sl != nil {
		s.ready = append(s.ready, sl)
	} else {
		s.poked = true
	}
	wake := s.wakeLocked()
	s.p.mu.Unlock()
	if wake {
		s.wake <- struct{}{}
	}
}

// poke wakes the sweep to look at the clock and ctx: the timer and a
// cancel of ctx call it. A poke that comes after the run it was meant
// for costs its sweep one spare look.
func (s *sweep) poke() { s.post(nil) }

// wakeLocked reports whether the poster must send on wake: only the
// first post to a sleeping sweep does, so wake never holds more than
// the one token the sweep waits for.
func (s *sweep) wakeLocked() bool {
	w := s.sleeping
	s.sleeping = false
	return w
}

// arm sets the timer for the head of the due list, unless it is already
// set to go off no later than that.
func (s *sweep) arm() {
	if s.head == nil {
		return
	}
	due := s.head.due
	now := time.Now()
	if s.armed.After(now) && !s.armed.After(due) {
		return
	}
	s.timer.Reset(due.Sub(now))
	s.armed = due
}

// queue puts sl on the due list at due. An attempt's deadline is
// mostly the latest yet and joins at the tail; a backoff, shorter than
// Timeout, walks back past later deadlines, and so does an attempt past
// the waits for tokens further off than Timeout, at most one a slot.
func (s *sweep) queue(sl *slot, due time.Time) {
	sl.due = due
	at := s.tail
	for at != nil && at.due.After(due) {
		at = at.prev
	}
	sl.prev = at
	if at == nil {
		sl.next, s.head = s.head, sl
	} else {
		sl.next, at.next = at.next, sl
	}
	if sl.next == nil {
		s.tail = sl
	} else {
		sl.next.prev = sl
	}
}

func (s *sweep) unqueue(sl *slot) {
	if sl.prev == nil {
		s.head = sl.next
	} else {
		sl.prev.next = sl.next
	}
	if sl.next == nil {
		s.tail = sl.prev
	} else {
		sl.next.prev = sl.prev
	}
	sl.prev, sl.next = nil, nil
}

// exchangeTCP runs the fallback on a per-query TCP connection, bounded
// by the pipeline timeout and any earlier ctx deadline, and cut short
// by a cancel of ctx, which it then returns.
func (p *Pipeline) exchangeTCP(ctx context.Context, server netip.AddrPort, q *dnswire.Message, resp *dnswire.Message) error {
	conn, err := udpio.DialTCP(ctx, server, p.cfg.Timeout)
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
