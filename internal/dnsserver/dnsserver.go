// Package dnsserver provides a real UDP+TCP DNS server for the module's
// handlers: the same Handler interface the in-memory simulations use can
// be exposed on a socket, which is how the authdns and recursor binaries
// and the live-wire example run. It handles EDNS0 buffer sizes, UDP
// truncation with TCP fallback, and concurrent serving with graceful
// shutdown.
//
// The server is built to stay correct under overload: refused clients
// are response-rate-limited with the standard slip/TC mechanism (see
// rrl.go) as each datagram is read, a query that must wait runs on a
// bounded worker pool (grown on demand up to MaxInflight) with a
// configurable overflow policy, TCP connections are capped (MaxConns)
// with idle and write deadlines, handler panics are recovered per query
// and answered SERVFAIL, and every query read off the wire is accounted
// for in ServerStats. Shutdown(ctx) drains in-flight work gracefully;
// Close force-closes.
//
// There is one way to answer a query: a FillHandler's ServeDNS fills in
// a reply the server keeps. The UDP read loop decodes every datagram
// once and asks the handler first, with mayWait unset, to answer on the
// goroutine that read it. Only the queries it declines (a resolver's
// cache misses) are queued for a worker, already decoded, which asks
// again with mayWait set, as does a TCP connection. A cache hit costs no
// hand-off and no second goroutine. A Handler that only returns
// responses is served as a FillHandler that declines every query on the
// read loop and copies its response into the reply on a worker.
//
// The read loop answers a query that finds it idle as it always has:
// one recvfrom, and the reply in one sendto. Only the datagrams already
// queued behind one are batched: it takes them in one recvmmsg, up to
// loopBatch, serves each as if read alone, and sends the batch's
// replies in one sendmmsg before it reads again (udpio.ReadBacklog, whose
// probe for a backlog backs off while it finds none). A worker's reply
// and TCP are unbatched.
//
// The server owns the memory it decodes and encodes in. Each TCP
// connection and each UDP worker keep one reply Message and one output
// buffer for as long as they live, the read loop one reply Message and
// an output buffer per datagram of a batch, and a TCP connection and
// the read loop one query Message. A queued query's
// Message goes to the worker with it and comes back to the loop for a
// later datagram. Every query's names are views of its Message
// (dnswire.UnpackBorrowedInto), on the loop, on a worker and over TCP
// alike. So a served or refused query allocates nothing of its own, even
// for a name never seen. The price is the handler contract: the query
// and its names are borrowed for the call, a later query is decoded
// into the same Message, and a reply is refilled in place by the next
// one.
package dnsserver

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/udpio"
)

// Handler answers DNS queries. It matches netem.Handler so simulation
// nodes can be served on real sockets unchanged. A Handler that is not
// a FillHandler is served on a worker or a TCP connection only, and the
// response it returns is copied into the server's reply: the server
// never writes it, and a nil response sends nothing. The query is
// borrowed as a FillHandler's is.
type Handler interface {
	HandleDNS(from netip.Addr, query *dnswire.Message) *dnswire.Message
}

// FillHandler is the one fill-in handler: ServeDNS answers query by
// filling in resp, a reply the server keeps, and reports whether it did.
//
// The UDP read loop that decoded query calls it first, with mayWait
// unset, and sends what it fills in. It must then not block, because
// every datagram behind it waits until it returns, and so do the
// replies to the datagrams read in the same batch; and it may decline:
// return false having changed nothing, neither query nor resp nor any
// state or counter of its own, because the declined query is queued, in
// the Message it was decoded into, for a worker, which calls ServeDNS
// again with mayWait set, as if the query were new, and it is counted
// there. A TCP connection calls it with mayWait set too. With mayWait
// set it may block (a resolver waits on its upstream) and false means
// the query is answered with nothing.
//
// Both messages change hands at the call. The query is borrowed, names
// and all: it is valid until ServeDNS returns, after which the server
// decodes a later query into the same Message, and each name is a view
// of that Message's memory, which the decode rewrites. A handler that
// keeps any name, slice, RR or option payload of it past the call (a
// map key, a log record, a cache entry) copies it at the moment it
// keeps it: mayWait says only whether the call may block. resp is the
// calling goroutine's own reply, which its next query refills in place
// (dnswire.Message.SetReply makes it a skeleton without allocating):
// records must be appended to its
// sections, never shared into them from a cache or zone, or the next
// reply writes over the cache's records. The server sets the reply's ID
// and QR bit and may truncate it. A panic is recovered and answered
// SERVFAIL.
type FillHandler interface {
	ServeDNS(from netip.Addr, query, resp *dnswire.Message, mayWait bool) bool
}

// OverflowPolicy decides what happens to a UDP query when the admission
// queue is full.
type OverflowPolicy int

const (
	// OverflowDrop silently discards overflow queries — the cheapest
	// shed, steering well-behaved clients into their retry path.
	OverflowDrop OverflowPolicy = iota
	// OverflowServFail answers overflow queries with SERVFAIL, an
	// explicit signal at the cost of one reply per shed.
	OverflowServFail
)

// ParseOverflow parses the -overflow flag of cmd/authdns and
// cmd/recursor: "drop" or "servfail".
func ParseOverflow(spec string) (OverflowPolicy, error) {
	switch spec {
	case "drop":
		return OverflowDrop, nil
	case "servfail":
		return OverflowServFail, nil
	}
	return 0, fmt.Errorf("bad -overflow %q (want drop or servfail)", spec)
}

// Serving defaults.
const (
	// DefaultMaxInflight is the UDP worker-pool cap when MaxInflight
	// is left zero.
	DefaultMaxInflight = 256
	// DefaultMaxConns is the concurrent-TCP-connection cap when
	// MaxConns is left zero.
	DefaultMaxConns = 128
)

// tcpReadTimeout bounds per-connection TCP reads; between queries it
// acts as the idle timeout. tcpWriteTimeout bounds each TCP response
// write, so one stalled peer cannot pin a connection goroutine forever.
const (
	tcpReadTimeout  = 5 * time.Second
	tcpWriteTimeout = 5 * time.Second
)

// Server serves DNS over UDP and TCP on the same address. Configuration
// fields must be set before Start.
type Server struct {
	handler FillHandler
	// MaxInflight bounds concurrently-dispatched UDP queries: the cap
	// on the worker pool, grown on demand, and the admission-queue
	// depth (0 = the DefaultMaxInflight of 256, negative = 1). Queries
	// the handler answers on the read loop never enter the queue, so
	// they are not bounded by it and never shed.
	MaxInflight int
	// Overflow is the shed policy once the admission queue is full.
	Overflow OverflowPolicy
	// MaxConns bounds concurrent TCP connections (0 = DefaultMaxConns,
	// negative = unlimited). Excess accepts are closed immediately.
	MaxConns int
	// RRL, when positive, rate-limits UDP responses to RRL per second
	// per client prefix (/24, /56) with the slip/TC mechanism (rrl.go);
	// 0 is off. TCP is never rate-limited: it is the escape valve slips
	// steer legitimate clients to.
	RRL float64
	// Now supplies the RRL token-refill clock (default time.Now). Chaos
	// harnesses install a netem virtual clock here so shed/slip counts
	// are exact, deterministic functions of the offered load.
	Now func() time.Time

	mu     sync.Mutex
	pc     *udpio.UDPConn
	ln     *udpio.Listener
	closed bool
	conns  map[udpio.Conn]struct{}
	// queue is the UDP admission queue. The read loop is its only
	// sender, starts the workers that drain it, and closes it.
	queue chan udpPacket
	// spare holds the query Messages workers are done with, for the
	// read loop to decode into. The loop makes a Message only while it
	// holds none and spare is empty, so the queue and the workers hold
	// every other: there are never more than 2×MaxInflight+1, spare's
	// room, and no worker's send on it ever blocks.
	spare chan *dnswire.Message
	// pending counts queries admitted to queue and not yet finished
	// by a worker; the read loop starts a worker when it exceeds the
	// workers started so far.
	pending atomic.Int64
	rrl     *rrl
	// loops tracks the two accept/read loops (the UDP read loop waits
	// out its own workers before it returns); handlers the
	// per-connection TCP goroutines. They are separate so shutdown can
	// forbid new spawns (via the closed flag, checked under mu) before
	// waiting — a single WaitGroup would race Add against Wait.
	loops    sync.WaitGroup
	handlers sync.WaitGroup

	closeSockets sync.Once
	closeUDP     sync.Once

	stats counters
}

// udpPacket is one declined query queued for the worker pool: the
// Message the read loop decoded it into, which the worker returns to
// spare, and its client.
type udpPacket struct {
	query *dnswire.Message
	from  netip.AddrPort
}

// workspace is the memory one serving goroutine decodes and encodes in:
// a UDP worker, a TCP connection, or the read loop. It lives as long as
// the goroutine, so each query is decoded into the same Message and each
// reply filled in and packed into the same memory. The read loop's query
// Message goes to a worker with each query the handler declines; a
// worker holds each in turn.
type workspace struct {
	query *dnswire.Message // the query the handler borrows
	reply dnswire.Message  // the answer, a refusal or a FORMERR
	// replyOPT is the OPT record the reply is lent before each answer: a
	// reply without one, a refusal or a FORMERR, drops its pointer, and
	// replyOPT keeps the option slots for the next answer.
	replyOPT dnswire.EDNS
	out      []byte // the packed reply, valid until the next one
}

// refusal fills ws.reply with the minimal answer to a packet the server
// will not dispatch: the packet's ID, QR set and rcode. When echo is
// set, ws.query holds the packet's query, and the reply repeats its
// opcode, RD flag and question, as dnswire.NewResponse would. A nil
// return means the packet is too short to carry an ID. The sections
// keep their arrays for the next reply to fill.
func (ws *workspace) refusal(pkt []byte, echo bool, rcode dnswire.RCode) *dnswire.Message {
	id, ok := dnswire.PeekID(pkt)
	if !ok {
		return nil
	}
	return ws.refuse(id, echo, rcode)
}

// refuse is refusal for a packet whose ID is id.
func (ws *workspace) refuse(id uint16, echo bool, rcode dnswire.RCode) *dnswire.Message {
	r := &ws.reply
	*r = dnswire.Message{
		Questions: r.Questions[:0], Answers: r.Answers[:0],
		Authorities: r.Authorities[:0], Additionals: r.Additionals[:0],
	}
	r.ID, r.Response, r.RCode = id, true, rcode
	if echo {
		r.OpCode, r.RecursionDesired = ws.query.OpCode, ws.query.RecursionDesired
		r.Questions = append(r.Questions, ws.query.Questions...)
	}
	return r
}

// New creates a server for the handler: through ServeDNS when it is a
// FillHandler, and otherwise through HandleDNS on workers and TCP
// connections, its response copied into the reply.
func New(h Handler) *Server {
	f, ok := h.(FillHandler)
	if !ok {
		f = copyHandler{h}
	}
	return &Server{handler: f}
}

// copyHandler serves a Handler that is not a FillHandler: it declines
// every query it may not wait on, and fills the reply with a copy of the
// response HandleDNS returns.
type copyHandler struct{ h Handler }

func (c copyHandler) ServeDNS(from netip.Addr, query, resp *dnswire.Message, mayWait bool) bool {
	if !mayWait {
		return false
	}
	r := c.h.HandleDNS(from, query)
	if r == nil {
		return false
	}
	fill(resp, r)
	return true
}

// fill makes resp a copy of r in resp's own memory: r's header, its
// records appended to resp's section arrays and, when r has an OPT
// record, a copy of it in the one resp was lent. Truncating or refilling
// resp then never touches r, whose records and option bytes are only
// read.
func fill(resp, r *dnswire.Message) {
	opt := resp.EDNS
	resp.Header = r.Header
	resp.Questions = append(resp.Questions[:0], r.Questions...)
	resp.Answers = append(resp.Answers[:0], r.Answers...)
	resp.Authorities = append(resp.Authorities[:0], r.Authorities...)
	resp.Additionals = append(resp.Additionals[:0], r.Additionals...)
	resp.EDNS = nil
	if r.EDNS != nil {
		if opt == nil {
			opt = new(dnswire.EDNS)
		}
		options := append(opt.Options[:0], r.EDNS.Options...)
		*opt = *r.EDNS
		opt.Options = options
		resp.EDNS = opt
	}
}

func (s *Server) maxInflight() int {
	switch {
	case s.MaxInflight > 0:
		return s.MaxInflight
	case s.MaxInflight < 0:
		return 1
	default:
		return DefaultMaxInflight
	}
}

func (s *Server) maxConns() int {
	switch {
	case s.MaxConns > 0:
		return s.MaxConns
	case s.MaxConns < 0:
		return 0 // unlimited
	default:
		return DefaultMaxConns
	}
}

func (s *Server) now() time.Time {
	if s.Now != nil {
		return s.Now()
	}
	return time.Now()
}

// listenTCP is the TCP half of a bind; a test replaces it to make the
// port UDP got unavailable on TCP.
var listenTCP = udpio.ListenTCP

// ephemeralBindTries bounds how many ephemeral ports listenPair tries
// before giving up on finding one free on both UDP and TCP.
const ephemeralBindTries = 8

// listenPair binds UDP on addr and TCP on whatever port UDP got. With
// port 0 the kernel picks the UDP port without regard to TCP, so another
// process may hold the same number on TCP: the pair is then retried on a
// fresh ephemeral port. An explicitly requested port fails at once.
func listenPair(addr string) (*udpio.UDPConn, *udpio.Listener, error) {
	if strings.HasPrefix(addr, ":") {
		addr = "[::]" + addr // every local address, as net reads ":port"
	}
	ap, err := netip.ParseAddrPort(addr)
	if err != nil {
		return nil, nil, fmt.Errorf("dnsserver: listen address: %w", err)
	}
	tries := 1
	if ap.Port() == 0 {
		tries = ephemeralBindTries
	}
	var lastErr error
	for i := 0; i < tries; i++ {
		pc, err := udpio.ListenUDP(ap)
		if err != nil {
			return nil, nil, fmt.Errorf("dnsserver: udp %w", err)
		}
		ln, err := listenTCP(pc.LocalAddr())
		if err == nil {
			return pc, ln, nil
		}
		pc.Close()
		lastErr = err
	}
	return nil, nil, fmt.Errorf("dnsserver: tcp %w", lastErr)
}

// Start binds UDP and TCP sockets on addr (ip:port, or :port for every
// local address; port 0 picks an ephemeral port, with TCP bound to
// whatever port UDP got) and begins serving. It returns the bound
// address.
func (s *Server) Start(addr string) (netip.AddrPort, error) {
	pc, ln, err := listenPair(addr)
	if err != nil {
		return netip.AddrPort{}, err
	}
	bound := pc.LocalAddr()
	var rl *rrl
	switch {
	case s.RRL > 0:
		rl = newRRL(s.RRL, s.now)
	case !(s.RRL >= 0): // negative or NaN
		pc.Close()
		ln.Close()
		return netip.AddrPort{}, fmt.Errorf("dnsserver: rrl: rate must be positive or 0 (off), got %v", s.RRL)
	}
	l, err := s.newUDPLoop(pc)
	if err != nil {
		pc.Close()
		ln.Close()
		return netip.AddrPort{}, fmt.Errorf("dnsserver: udp socket: %w", err)
	}
	s.mu.Lock()
	s.pc, s.ln = pc, ln
	s.conns = make(map[udpio.Conn]struct{})
	s.queue = make(chan udpPacket, s.maxInflight())
	s.spare = make(chan *dnswire.Message, 2*s.maxInflight()+1)
	s.rrl = rl
	s.mu.Unlock()
	s.loops.Add(2)
	go s.serveUDP(l)
	go s.serveTCP(ln)
	return bound, nil
}

// beginShutdown marks the server closed, stops new intake (the TCP
// listener is closed; the UDP socket stops reading via an expired
// deadline but stays open so workers can still write answers for
// already-admitted queries), and nudges every open TCP connection's
// read deadline so idle connections stop waiting for a next query. It
// is idempotent.
func (s *Server) beginShutdown() {
	s.closeSockets.Do(func() {
		s.mu.Lock()
		s.closed = true
		pc, ln := s.pc, s.ln
		conns := make([]udpio.Conn, 0, len(s.conns))
		for c := range s.conns {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		if pc != nil {
			pc.SetReadDeadline(time.Now())
		}
		if ln != nil {
			ln.Close()
		}
		for _, c := range conns {
			// Unblocks a read waiting for the next query; a query
			// already read keeps being served (serveConn re-checks the
			// closed flag only between frames).
			c.SetReadDeadline(time.Now())
		}
	})
}

// finishShutdown waits out the serve loops (the UDP read loop returns
// only once its workers have drained the admission queue) and the TCP
// connection goroutines, then closes the UDP socket — only now, so
// draining workers could still send their answers.
func (s *Server) finishShutdown() {
	s.loops.Wait()
	s.handlers.Wait()
	s.closeUDP.Do(func() {
		s.mu.Lock()
		pc := s.pc
		s.mu.Unlock()
		if pc != nil {
			pc.Close()
		}
	})
}

// forceCloseConns closes every open TCP connection, unblocking stalled
// reads and writes.
func (s *Server) forceCloseConns() {
	s.mu.Lock()
	conns := make([]udpio.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Shutdown gracefully drains the server: it stops accepting new
// queries, lets queued UDP packets and in-progress TCP queries finish,
// and returns once everything in flight has been answered. If ctx ends
// first, remaining TCP connections are force-closed and Shutdown
// returns ctx.Err() (handler goroutines then wind down in the
// background; Close can be used to wait them out).
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginShutdown()
	done := make(chan struct{})
	go s.drainNotify(done)
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.forceCloseConns()
		return ctx.Err()
	}
}

// drainNotify runs the blocking drain and closes done once everything
// in flight has wound down. Its lifecycle is bounded by the server's
// WaitGroups: it deliberately outlives a Shutdown whose ctx expired —
// the documented background drain — and exits when the last worker and
// handler release.
func (s *Server) drainNotify(done chan<- struct{}) {
	defer close(done)
	s.finishShutdown()
}

// Close stops serving immediately: open TCP connections are
// force-closed, then in-flight handlers are waited out.
func (s *Server) Close() error {
	s.beginShutdown()
	s.forceCloseConns()
	s.finishShutdown()
	return nil
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// loopBatch is how many datagrams the read loop takes in one read, and
// how many replies it sends in one sendmmsg (DESIGN.md §11 has why 8).
const loopBatch = 8

// udpLoop is the UDP read loop's own state: its handles on the socket,
// the workspace it answers, slips and sheds in, the buffers it packs a
// batch's replies into, and the worker pool it starts. Only the loop's
// goroutine touches it.
type udpLoop struct {
	rx *udpio.Reader // the loop's reads, into buffers of its own
	tx *udpio.Writer // a batch's replies
	rw *udpio.Handle // a batch of one's reply; each worker clones it
	// out[i] is what the reply to a batch's i-th datagram is packed
	// into: a batch's replies are all kept until one Flush sends them.
	out            [loopBatch][]byte
	ws             workspace
	workers        sync.WaitGroup
	started, limit int64 // workers started so far, and their cap
}

func (s *Server) newUDPLoop(pc *udpio.UDPConn) (*udpLoop, error) {
	rx, err := udpio.NewReader(pc, loopBatch)
	if err != nil {
		return nil, err
	}
	return &udpLoop{rx: rx, tx: udpio.NewWriter(pc, loopBatch), rw: udpio.New(pc), limit: int64(s.maxInflight())}, nil
}

// serveUDP is the UDP read loop and the owner of the worker pool. It
// reads with ReadBacklog: a datagram that finds the loop idle is read
// alone with recvfrom and its reply sent with sendto, and only the
// datagrams already queued behind one are taken with it, up to
// loopBatch, in one recvmmsg. It serves each datagram (serveDatagram)
// and sends a batch's replies in one sendmmsg before it reads again.
// Once the socket's read deadline expires on shutdown it closes the
// queue, waits for the workers to drain it, and closes its reader.
func (s *Server) serveUDP(l *udpLoop) {
	defer s.loops.Done()
	for {
		k, err := l.rx.ReadBacklog()
		if err != nil {
			if s.isClosed() {
				break
			}
			continue
		}
		for i := 0; i < k; i++ {
			pkt, from, _ := l.rx.Datagram(i) // a cut datagram is nil: malformed
			s.stats.received.Add(1)
			data := s.serveDatagram(l, pkt, from, &l.out[i])
			switch {
			case data == nil:
			case k == 1:
				l.rw.WriteTo(data, from)
			default:
				l.tx.Add(data, from)
			}
		}
		if k > 1 {
			l.tx.Flush(ignoreRefused)
		}
	}
	close(s.queue)
	l.workers.Wait()
	l.rx.Close()
}

// ignoreRefused is the loop's Flush callback: a reply the kernel
// refuses is lost, as one sendto refuses is.
func ignoreRefused(int, error) {}

// serveDatagram decides one datagram on the read loop and returns the
// reply to send, packed into out, or nil. RRL comes first, once per
// datagram: a refusal is shed or slipped here. Then the datagram is
// decoded, the only time it is, and the handler is asked for an answer
// that needs no wait, which is sent from the loop; a query it declines
// is admitted to the worker pool. Nothing here allocates once the loop
// has warmed up (TestAllocGateServeUDP and TestAllocGateShed count it).
func (s *Server) serveDatagram(l *udpLoop, pkt []byte, from netip.AddrPort, out *[]byte) []byte {
	ws := &l.ws
	if ws.query == nil {
		// The last Message went to a worker with its query: take one a
		// worker has finished with, or a new one while none has.
		select {
		case ws.query = <-s.spare:
		default:
			ws.query = new(dnswire.Message)
		}
	}
	action := rrlPass
	if s.rrl != nil {
		action = s.rrl.decide(from.Addr())
	}
	var resp, query *dnswire.Message
	switch action {
	case rrlDrop:
		s.stats.shed.Add(1)
		s.stats.rrlDropped.Add(1)
	case rrlSlip:
		// The slip: a truncated (TC=1) empty reply that steers the
		// client to TCP, which is never rate-limited. It echoes the
		// question when the datagram decodes as a query.
		s.stats.slipped.Add(1)
		err := dnswire.UnpackBorrowedInto(ws.query, pkt)
		if resp = ws.refusal(pkt, err == nil && !ws.query.Response, dnswire.RCodeNoError); resp != nil {
			resp.Truncated = true
		}
	default:
		resp, query = s.process(from, pkt, ws, l)
	}
	if resp == nil {
		return nil
	}
	return pack(out, resp, query)
}

// admit hands the loop's declined query to the worker pool: its Message
// goes on the queue, and a worker is started when the queries admitted
// but unfinished outnumber the workers started, up to MaxInflight — so
// a queued query never waits on a later arrival to get a worker, a
// closed loop runs on one warm stack, and a flood ends at the same bound
// as a pre-started pool. Workers are not retired; the pool is a
// high-water mark. A full queue sheds the query per Overflow: the loop
// keeps its Message, and admit returns the SERVFAIL to send, or nil.
func (s *Server) admit(l *udpLoop, pkt []byte, from netip.AddrPort) *dnswire.Message {
	select {
	case s.queue <- udpPacket{query: l.ws.query, from: from}:
		l.ws.query = nil // the worker's now
		if s.pending.Add(1) > l.started && l.started < l.limit {
			l.started++
			s.stats.workers.Store(l.started)
			l.workers.Add(1)
			rw := l.rw.Clone()
			go func() {
				defer l.workers.Done()
				s.udpWorker(rw)
			}()
		}
		return nil
	default:
		// Admission control: the pool is saturated. Shed per the
		// configured policy instead of queueing unbounded work.
		s.stats.shed.Add(1)
		if s.Overflow == OverflowServFail {
			return l.ws.refusal(pkt, true, dnswire.RCodeServFail)
		}
		return nil
	}
}

// udpWorker is one admission-pool worker: it answers each queued query
// through serve, with mayWait set, and packs the reply in a workspace of
// its own. The query's Message goes back to spare once the reply is
// packed and before it leaves, so a client that waits for the reply
// finds the read loop decoding its next query into the same Message.
// Nothing here allocates once a worker has warmed up
// (TestAllocGateServeUDP counts it). rw is the worker's own handle on
// the socket.
func (s *Server) udpWorker(rw *udpio.Handle) {
	var ws workspace
	for p := range s.queue {
		s.stats.inflight.Add(1)
		ws.query = p.query
		var data []byte
		if resp, _ := s.serve(p.from.Addr(), &ws, true); resp != nil {
			data = pack(&ws.out, resp, p.query)
		}
		ws.query = nil
		s.spare <- p.query
		if data != nil {
			rw.WriteTo(data, p.from)
		}
		s.stats.inflight.Add(-1)
		s.pending.Add(-1)
	}
}

// pack packs resp into *out, truncated to what the client advertised:
// query, nil when the datagram did not decode, holds the client's EDNS
// buffer size. The bytes are valid until the next reply is packed into
// *out; nil means resp does not pack.
func pack(out *[]byte, resp, query *dnswire.Message) []byte {
	limit := dnswire.MaxUDPSize
	if query != nil && query.EDNS != nil && int(query.EDNS.UDPSize) > limit {
		limit = int(query.EDNS.UDPSize)
	}
	data, err := resp.AppendTruncateTo((*out)[:0], limit)
	if err != nil {
		return nil
	}
	*out = data[:0] // keep any growth for the next reply
	return data
}

// admitConn registers a new TCP connection unless the server is closed
// (Close may already be waiting on the handlers WaitGroup, and Add
// after Wait is a race) or the connection cap is reached. rejected
// distinguishes a cap rejection from shutdown.
func (s *Server) admitConn(conn udpio.Conn) (ok, rejected bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, false
	}
	if limit := s.maxConns(); limit > 0 && len(s.conns) >= limit {
		return false, true
	}
	s.conns[conn] = struct{}{}
	s.handlers.Add(1)
	s.stats.conns.Add(1)
	s.stats.connsTotal.Add(1)
	return true, false
}

func (s *Server) releaseConn(conn udpio.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.stats.conns.Add(-1)
}

func (s *Server) serveTCP(ln *udpio.Listener) {
	defer s.loops.Done()
	for {
		conn, from, err := ln.Accept()
		if err != nil {
			if s.isClosed() {
				return
			}
			continue
		}
		ok, rejected := s.admitConn(conn)
		if !ok {
			conn.Close()
			if rejected {
				s.stats.connsRejected.Add(1)
				continue
			}
			return // shutting down
		}
		go func() {
			defer s.handlers.Done()
			defer s.releaseConn(conn)
			s.serveConn(conn, from)
		}()
	}
}

// serveConn serves one TCP connection from the client at from, frame by
// frame, in memory the connection keeps: the frame read buffer, and a
// workspace whose output buffer holds each response behind its 2-byte
// length prefix.
func (s *Server) serveConn(conn udpio.Conn, from netip.AddrPort) {
	ws := workspace{query: new(dnswire.Message)}
	var frame []byte // the length prefix, then the query it announces
	for {
		if s.isClosed() {
			return // drain: finish the current query, take no more
		}
		conn.SetReadDeadline(time.Now().Add(tcpReadTimeout))
		frame = append(frame[:0], 0, 0)
		if _, err := io.ReadFull(conn, frame); err != nil {
			return
		}
		msgLen := int(binary.BigEndian.Uint16(frame))
		if msgLen == 0 {
			// A zero-length frame is a protocol violation; dispatching
			// an empty packet would only manufacture garbage work.
			s.stats.received.Add(1)
			s.stats.malformed.Add(1)
			return
		}
		frame = slices.Grow(frame[:0], msgLen)[:msgLen]
		if _, err := io.ReadFull(conn, frame); err != nil {
			return
		}
		s.stats.received.Add(1)
		s.stats.inflight.Add(1)
		resp, _ := s.process(from, frame, &ws, nil)
		s.stats.inflight.Add(-1)
		if resp == nil {
			return
		}
		out, err := resp.AppendPack(append(ws.out[:0], 0, 0))
		if err != nil {
			return
		}
		ws.out = out[:0]
		binary.BigEndian.PutUint16(out, uint16(len(out)-2))
		conn.SetWriteDeadline(time.Now().Add(tcpWriteTimeout))
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// process decodes one packet into ws.query, its names borrowed, and has
// it served, returning the prepared response and the decoded query, nil
// when the packet does not decode, so a caller may consult its EDNS
// advertisement. A nil response means "send nothing". A packet that does not decode is
// answered FORMERR from ws.reply when at least its ID can be read. On
// the read loop, l is the loop and ws its workspace, and a query the
// handler declines is admitted to the worker pool in the Message it was
// decoded into, which the worker answers without decoding it again;
// process then returns what admit does. On a TCP connection l is nil,
// and the handler may wait.
func (s *Server) process(from netip.AddrPort, pkt []byte, ws *workspace, l *udpLoop) (resp, query *dnswire.Message) {
	query = ws.query
	if err := dnswire.UnpackBorrowedInto(query, pkt); err != nil {
		s.stats.malformed.Add(1)
		return ws.refusal(pkt, false, dnswire.RCodeFormErr), nil
	}
	if query.Response {
		s.stats.malformed.Add(1)
		return nil, query // never answer responses
	}
	resp, answered := s.serve(from.Addr(), ws, l == nil)
	if !answered {
		return s.admit(l, pkt, from), query
	}
	return resp, query
}

// serve asks the handler to answer ws.query in ws.reply, lent the
// workspace's OPT record first, recovering a panic into a counted
// SERVFAIL so a buggy or hostile flow cannot take down every experiment
// sharing the process. It returns the reply to send, nil for none, and
// whether the query was answered: false only for a query declined on
// the read loop (mayWait unset), which is then not counted.
func (s *Server) serve(from netip.Addr, ws *workspace, mayWait bool) (resp *dnswire.Message, answered bool) {
	defer func() {
		if r := recover(); r != nil {
			s.stats.panics.Add(1)
			resp, answered = ws.refuse(ws.query.ID, true, dnswire.RCodeServFail), true
		}
	}()
	ws.reply.EDNS = &ws.replyOPT
	filled := s.handler.ServeDNS(from, ws.query, &ws.reply, mayWait)
	if !filled && !mayWait {
		return nil, false
	}
	s.stats.answered.Add(1)
	if !filled {
		return nil, true
	}
	if !mayWait {
		s.stats.immediate.Add(1)
	}
	resp = &ws.reply
	resp.ID, resp.Response = ws.query.ID, true
	return resp, true
}

// ErrServerClosed mirrors net/http's sentinel for symmetry in callers.
var ErrServerClosed = errors.New("dnsserver: server closed")
