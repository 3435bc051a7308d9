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
// A handler that can answer some queries without waiting implements
// Immediate as well. The UDP read loop then answers those queries on the
// goroutine that read them, and only the queries it declines (a
// resolver's cache misses) are copied and queued for a worker. A cache
// hit costs no hand-off and no second goroutine.
//
// The server owns the memory it decodes and encodes in. Each UDP worker,
// each TCP connection and the UDP read loop keep one query Message, one
// reply Message and one output buffer for as long as they live, so a
// served or refused query allocates nothing of its own. The price is the
// handler contracts: the query is borrowed for the call, the next query
// on the same goroutine is decoded into the same Message, and an
// Immediate reply is refilled in place by the next one.
package dnsserver

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ecsdns/internal/dnswire"
)

// Handler answers DNS queries. It matches netem.Handler so simulation
// nodes can be served on real sockets unchanged.
//
// Both messages change hands at the call. The query is borrowed: it is
// valid until HandleDNS returns, after which the server decodes the next
// query into the same Message. A handler that keeps any slice, RR or
// option payload of it past the call must copy it; strings (names) are
// immutable and may be kept. The returned response becomes the
// server's: it sets the ID and QR bit on it and, over UDP, may truncate
// its sections, so a handler must not hand out a response it still
// changes. A response may hold a cache's records: they are shared by
// every cache entry that holds the same answer as well as by every
// response built from one, so nothing writes them, and truncation only
// reslices the response's own section slices. HandleDNS runs on a UDP
// worker or a TCP connection's goroutine and may block: a resolver waits
// on its upstream here.
type Handler interface {
	HandleDNS(from netip.Addr, query *dnswire.Message) *dnswire.Message
}

// Immediate is implemented by a Handler that can answer some queries
// without waiting, such as a resolver's cache hits. The UDP read loop
// that decoded query calls HandleImmediate before anything else and
// sends what it fills in; only a query it declines is queued for a
// worker and HandleDNS.
//
// HandleImmediate must not block: it runs on the read loop, and every
// datagram behind it waits until it returns. It either fills resp and
// returns true, or returns false having changed nothing, neither resp
// nor any state or counter of its own, because the declined query then
// reaches HandleDNS as if new and is counted there. The query is
// borrowed as HandleDNS's is. resp is the read loop's own reply, which
// the next query on that loop refills in place (dnswire.Message.SetReply
// makes it a skeleton without allocating): records must be appended to
// its sections, never shared into them from a cache or zone, or the
// next reply writes over the cache's records. The server sets the
// reply's ID and QR bit and may truncate it.
type Immediate interface {
	HandleImmediate(from netip.Addr, query, resp *dnswire.Message) bool
}

// OverflowPolicy decides what happens to a UDP query when the admission
// queue is full.
type OverflowPolicy int

const (
	// OverflowDrop silently discards overflow queries — the cheapest
	// shed, steering well-behaved clients into their retry path.
	OverflowDrop OverflowPolicy = iota
	// OverflowServFail answers overflow queries with SERVFAIL, an
	// explicit signal at the cost of one parse + one reply per shed.
	OverflowServFail
)

// Serving defaults.
const (
	// DefaultMaxInflight is the UDP worker-pool cap when MaxInflight
	// is left zero.
	DefaultMaxInflight = 256
	// DefaultMaxConns is the concurrent-TCP-connection cap when
	// MaxConns is left zero.
	DefaultMaxConns = 128
)

// Server serves DNS over UDP and TCP on the same address. Configuration
// fields must be set before Start.
type Server struct {
	handler Handler
	// immediate is handler's Immediate side, nil when it has none.
	immediate Immediate
	// ReadTimeout bounds per-connection TCP reads; between queries it
	// acts as the idle timeout.
	ReadTimeout time.Duration
	// WriteTimeout bounds each TCP response write, so one stalled peer
	// cannot pin a connection goroutine forever.
	WriteTimeout time.Duration
	// MaxInflight bounds concurrently-dispatched UDP queries: the cap
	// on the worker pool, grown on demand, and the admission-queue
	// depth (0 = the DefaultMaxInflight of 256, negative = 1). Queries
	// an Immediate handler answers on the read loop never enter the
	// queue, so they are not bounded by it and never shed.
	MaxInflight int
	// Overflow is the shed policy once the admission queue is full.
	Overflow OverflowPolicy
	// MaxConns bounds concurrent TCP connections (0 = DefaultMaxConns,
	// negative = unlimited). Excess accepts are closed immediately.
	MaxConns int
	// RRL, when non-nil, rate-limits UDP responses per client prefix
	// with the slip/TC mechanism. TCP is never rate-limited: it is the
	// escape valve slips steer legitimate clients to.
	RRL *RRLConfig
	// Now supplies the RRL token-refill clock (default time.Now). Chaos
	// harnesses install a netem virtual clock here so shed/slip counts
	// are exact, deterministic functions of the offered load.
	Now func() time.Time

	mu     sync.Mutex
	pc     *net.UDPConn
	ln     net.Listener
	closed bool
	conns  map[net.Conn]struct{}
	// queue is the UDP admission queue. The read loop is its only
	// sender, starts the workers that drain it, and closes it.
	queue chan udpPacket
	// pending counts datagrams admitted to queue and not yet finished
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

// udpPacket is one received datagram queued for the worker pool. bp is
// the pooled backing buffer pkt lives in; the worker returns it to
// udpBufPool once the packet has been served.
type udpPacket struct {
	pkt  []byte
	bp   *[]byte
	from netip.AddrPort
}

// udpBufPool recycles the per-datagram copies the UDP read loop hands
// to the worker pool. The read loop takes one per datagram; the worker
// that served it, or the read loop when it sheds it, puts it back.
var udpBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 2048)
		return &b
	},
}

// workspace is the memory one serving goroutine decodes and encodes in:
// a UDP worker, a TCP connection, or the read loop. It lives as long as
// the goroutine, so each query is decoded into the same Message and each
// reply packed into the same bytes.
type workspace struct {
	query dnswire.Message // the query the handler borrows
	reply dnswire.Message // a refusal, a FORMERR, or an Immediate answer
	// replyOPT is the OPT record an Immediate reply is lent before each
	// answer: a reply without one, a refusal or a FORMERR, drops its
	// pointer, and replyOPT keeps the option slots for the next answer.
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

// refuse decodes pkt and packs the refusal for it into ws.out: the
// query's question echoed back when it parses as a query, with the given
// rcode, truncated when tc is set. The bytes are valid until ws is next
// used; nil means the packet cannot be identified well enough to answer.
func (ws *workspace) refuse(pkt []byte, rcode dnswire.RCode, tc bool) []byte {
	err := dnswire.UnpackInto(&ws.query, pkt)
	r := ws.refusal(pkt, err == nil && !ws.query.Response, rcode)
	if r == nil {
		return nil
	}
	r.Truncated = tc
	data, err := r.AppendPack(ws.out[:0])
	if err != nil {
		return nil
	}
	ws.out = data[:0]
	return data
}

// New creates a server for the handler, answering on the read loop what
// it can answer immediately when it implements Immediate.
func New(h Handler) *Server {
	immediate, _ := h.(Immediate)
	return &Server{
		handler:      h,
		immediate:    immediate,
		ReadTimeout:  5 * time.Second,
		WriteTimeout: 5 * time.Second,
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
var listenTCP = net.Listen

// ephemeralBindTries bounds how many ephemeral ports listenPair tries
// before giving up on finding one free on both UDP and TCP.
const ephemeralBindTries = 8

// listenPair binds UDP on addr and TCP on whatever port UDP got. With
// port 0 the kernel picks the UDP port without regard to TCP, so another
// process may hold the same number on TCP: the pair is then retried on a
// fresh ephemeral port. An explicitly requested port fails at once.
func listenPair(addr string) (*net.UDPConn, net.Listener, error) {
	tries := 1
	if _, port, err := net.SplitHostPort(addr); err == nil && port == "0" {
		tries = ephemeralBindTries
	}
	var lastErr error
	for i := 0; i < tries; i++ {
		pc, err := net.ListenPacket("udp", addr)
		if err != nil {
			return nil, nil, fmt.Errorf("dnsserver: udp listen: %w", err)
		}
		ln, err := listenTCP("tcp", pc.LocalAddr().String())
		if err == nil {
			return pc.(*net.UDPConn), ln, nil // what "udp" listens as
		}
		pc.Close()
		lastErr = err
	}
	return nil, nil, fmt.Errorf("dnsserver: tcp listen: %w", lastErr)
}

// Start binds UDP and TCP sockets on addr (host:port; port 0 picks an
// ephemeral port, with TCP bound to whatever port UDP got) and begins
// serving. It returns the bound address.
func (s *Server) Start(addr string) (netip.AddrPort, error) {
	pc, ln, err := listenPair(addr)
	if err != nil {
		return netip.AddrPort{}, err
	}
	bound := pc.LocalAddr().(*net.UDPAddr).AddrPort()
	var rl *rrl
	if s.RRL != nil {
		rl, err = newRRL(*s.RRL, s.now)
		if err != nil {
			pc.Close()
			ln.Close()
			return netip.AddrPort{}, err
		}
	}
	s.mu.Lock()
	s.pc, s.ln = pc, ln
	s.conns = make(map[net.Conn]struct{})
	s.queue = make(chan udpPacket, s.maxInflight())
	s.rrl = rl
	s.mu.Unlock()
	s.loops.Add(2)
	go s.serveUDP(pc)
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
		conns := make([]net.Conn, 0, len(s.conns))
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
	conns := make([]net.Conn, 0, len(s.conns))
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

// udpLoop is the UDP read loop's own state: its socket, the workspace
// it answers, slips and sheds in, and the worker pool it starts. Only
// the loop's goroutine touches it.
type udpLoop struct {
	pc             *net.UDPConn
	ws             workspace
	workers        sync.WaitGroup
	started, limit int64 // workers started so far, and their cap
}

// serveUDP is the UDP read loop and the owner of the worker pool. It
// serves each datagram it reads (serveDatagram) until the socket's read
// deadline expires on shutdown, then closes the queue and waits for the
// workers to drain it.
func (s *Server) serveUDP(pc *net.UDPConn) {
	defer s.loops.Done()
	l := &udpLoop{pc: pc, limit: int64(s.maxInflight())}
	buf := make([]byte, 65535)
	for {
		n, from, err := pc.ReadFromUDPAddrPort(buf)
		if err != nil {
			if s.isClosed() {
				break
			}
			continue
		}
		s.stats.received.Add(1)
		s.serveDatagram(l, buf[:n], from)
	}
	close(s.queue)
	l.workers.Wait()
}

// serveDatagram decides one datagram on the read loop. RRL comes first,
// once per datagram: a refusal is shed or slipped here. Then an
// Immediate handler is asked for an answer, which is sent from here;
// what it declines, and every query of a handler without Immediate, is
// admitted to the worker pool. Nothing here allocates once the loop has
// warmed up (TestAllocGateServeUDP and TestAllocGateShed count it).
func (s *Server) serveDatagram(l *udpLoop, pkt []byte, from netip.AddrPort) {
	if s.rrl != nil {
		switch s.rrl.decide(from.Addr()) {
		case rrlDrop:
			s.stats.shed.Add(1)
			s.stats.rrlDropped.Add(1)
			return
		case rrlSlip:
			// The slip: a truncated (TC=1) empty reply that steers the
			// client to TCP, which is never rate-limited.
			s.stats.slipped.Add(1)
			if data := l.ws.refuse(pkt, dnswire.RCodeNoError, true); data != nil {
				l.pc.WriteToUDPAddrPort(data, from)
			}
			return
		}
	}
	if s.immediate == nil {
		s.admit(l, pkt, from)
		return
	}
	if resp, decoded := s.process(from, pkt, &l.ws, l); resp != nil {
		l.ws.send(l.pc, resp, decoded, from)
	}
}

// admit hands a datagram to the worker pool: a copy goes on the queue,
// and a worker is started when the datagrams admitted but unfinished
// outnumber the workers started, up to MaxInflight — so a queued
// datagram never waits on a later arrival to get a worker, a closed loop
// runs on one warm stack, and a flood ends at the same bound as a
// pre-started pool. Workers are not retired; the pool is a high-water
// mark. A full queue sheds the datagram per Overflow, refused from the
// read loop's workspace.
func (s *Server) admit(l *udpLoop, pkt []byte, from netip.AddrPort) {
	bp := udpBufPool.Get().(*[]byte)
	pkt = append((*bp)[:0], pkt...)
	*bp = pkt
	select {
	case s.queue <- udpPacket{pkt: pkt, bp: bp, from: from}:
		if s.pending.Add(1) > l.started && l.started < l.limit {
			l.started++
			s.stats.workers.Store(l.started)
			l.workers.Add(1)
			go func() {
				defer l.workers.Done()
				s.udpWorker(l.pc)
			}()
		}
	default:
		// Admission control: the pool is saturated. Shed per the
		// configured policy instead of queueing unbounded work.
		s.stats.shed.Add(1)
		if s.Overflow == OverflowServFail {
			if data := l.ws.refuse(pkt, dnswire.RCodeServFail, false); data != nil {
				l.pc.WriteToUDPAddrPort(data, from)
			}
		}
		udpBufPool.Put(bp)
	}
}

// udpWorker is one admission-pool worker: it parses and dispatches each
// queued packet, all in one workspace of its own.
func (s *Server) udpWorker(pc *net.UDPConn) {
	var ws workspace
	for p := range s.queue {
		s.stats.inflight.Add(1)
		s.serveUDPPacket(pc, p, &ws)
		s.stats.inflight.Add(-1)
		s.pending.Add(-1)
		udpBufPool.Put(p.bp)
	}
}

// serveUDPPacket decodes and dispatches one admitted datagram via
// process. The query is decoded into ws.query and the reply packed into
// ws.out, so nothing here allocates once a worker has warmed up
// (TestAllocGateServeUDP counts it).
func (s *Server) serveUDPPacket(pc *net.UDPConn, p udpPacket, ws *workspace) {
	if resp, decoded := s.process(p.from, p.pkt, ws, nil); resp != nil {
		ws.send(pc, resp, decoded, p.from)
	}
}

// send packs resp into ws.out, truncated to what the client advertised
// (decoded says ws.query holds the query, and with it the client's EDNS
// buffer size), and writes it to the client.
func (ws *workspace) send(pc *net.UDPConn, resp *dnswire.Message, decoded bool, to netip.AddrPort) {
	limit := dnswire.MaxUDPSize
	if e := ws.query.EDNS; decoded && e != nil && int(e.UDPSize) > limit {
		limit = int(e.UDPSize)
	}
	data, err := resp.AppendTruncateTo(ws.out[:0], limit)
	if err != nil {
		return
	}
	pc.WriteToUDPAddrPort(data, to)
	ws.out = data[:0] // keep any growth for the next reply
}

// admitConn registers a new TCP connection unless the server is closed
// (Close may already be waiting on the handlers WaitGroup, and Add
// after Wait is a race) or the connection cap is reached. rejected
// distinguishes a cap rejection from shutdown.
func (s *Server) admitConn(conn net.Conn) (ok, rejected bool) {
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

func (s *Server) releaseConn(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.stats.conns.Add(-1)
}

func (s *Server) serveTCP(ln net.Listener) {
	defer s.loops.Done()
	for {
		conn, err := ln.Accept()
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
			s.serveConn(conn)
		}()
	}
}

// serveConn serves one TCP connection, frame by frame, in memory the
// connection keeps: the frame read buffer, and a workspace whose output
// buffer holds each response behind its 2-byte length prefix.
func (s *Server) serveConn(conn net.Conn) {
	from := conn.RemoteAddr().(*net.TCPAddr).AddrPort()
	var ws workspace
	var frame []byte // the length prefix, then the query it announces
	for {
		if s.isClosed() {
			return // drain: finish the current query, take no more
		}
		if s.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.ReadTimeout))
		}
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
		if s.WriteTimeout > 0 {
			// Without this, a peer that stops reading pins the
			// connection goroutine forever.
			conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// process decodes one packet into ws.query and runs the handler with
// panic isolation, returning the prepared response. A nil response
// means "send nothing"; decoded reports whether ws.query holds the
// packet's query, so a caller may consult its EDNS advertisement
// without decoding the packet again. A packet that does not decode is
// answered FORMERR from ws.reply when at least its ID can be read. On
// the read loop, l is the loop, ws its workspace, and the query goes to
// handleNow; on a worker or a TCP connection l is nil and the query goes
// to HandleDNS.
func (s *Server) process(from netip.AddrPort, pkt []byte, ws *workspace, l *udpLoop) (resp *dnswire.Message, decoded bool) {
	query := &ws.query
	if err := dnswire.UnpackInto(query, pkt); err != nil {
		s.stats.malformed.Add(1)
		return ws.refusal(pkt, false, dnswire.RCodeFormErr), false
	}
	if query.Response {
		s.stats.malformed.Add(1)
		return nil, true // never answer responses
	}
	if l != nil {
		return s.handleNow(l, pkt, from), true
	}
	return s.handle(from.Addr(), query), true
}

// handleNow asks the Immediate handler to answer the loop's query in its
// reply, which is lent the workspace's OPT record first, with handle's
// panic isolation. A query the handler declines is admitted to the
// worker pool, and handleNow returns nil: the worker answers it,
// decoding the datagram and looking it up again, a cost only a declined
// query pays.
func (s *Server) handleNow(l *udpLoop, pkt []byte, from netip.AddrPort) (resp *dnswire.Message) {
	ws := &l.ws
	defer func() {
		if r := recover(); r != nil {
			s.stats.panics.Add(1)
			resp = ws.refusal(pkt, true, dnswire.RCodeServFail)
		}
	}()
	ws.reply.EDNS = &ws.replyOPT
	if !s.immediate.HandleImmediate(from.Addr(), &ws.query, &ws.reply) {
		s.admit(l, pkt, from)
		return nil
	}
	resp = &ws.reply
	resp.ID, resp.Response = ws.query.ID, true
	s.stats.answered.Add(1)
	s.stats.immediate.Add(1)
	return resp
}

// handle runs the handler for one parsed query, recovering a panic into
// a counted SERVFAIL so a buggy or hostile flow cannot take down every
// experiment sharing the process.
func (s *Server) handle(from netip.Addr, query *dnswire.Message) (resp *dnswire.Message) {
	defer func() {
		if r := recover(); r != nil {
			s.stats.panics.Add(1)
			resp = dnswire.NewResponse(query)
			resp.RCode = dnswire.RCodeServFail
		}
	}()
	resp = s.handler.HandleDNS(from, query)
	if resp != nil {
		resp.ID = query.ID
		resp.Response = true
	}
	s.stats.answered.Add(1)
	return resp
}

// ErrServerClosed mirrors net/http's sentinel for symmetry in callers.
var ErrServerClosed = errors.New("dnsserver: server closed")
