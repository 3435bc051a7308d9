// Package dnsclient is a DNS stub client over real sockets: UDP with
// retries and automatic TCP fallback on truncation, EDNS0 negotiation,
// and ECS helpers. It is the measurement probe the ecsscan binary and the
// live-wire example use against real servers.
//
// It holds two clients because the tree has two kinds of caller. Client
// gives every UDP attempt a connected socket of its own for as long as
// the attempt lasts, from a small ring it keeps per upstream: the source
// port is the kernel's choice and is dropped after a few dozen queries
// or a couple of seconds (RFC 5452), the socket only hears its upstream,
// and a dead upstream fails at once through the ICMP error instead of at
// the deadline. That is what a caching resolver needs — it has a cache
// to poison and a failover pool fed by fast errors — so cmd/recursor's
// upstream side and single-target probes use it. Pipeline multiplexes
// many in-flight queries over one shared unconnected socket, which
// gives up both properties: right for a scanner, which caches nothing
// and sets its own deadlines, so ecsscan -targets and the scan engine
// use it. DESIGN.md §11 has the ring's contract and the measured price.
package dnsclient

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
	"ecsdns/internal/stats"
	"ecsdns/internal/udpio"
)

// NoRetries disables UDP retries when assigned to Client.Retries. Any
// negative value works; the zero value keeps the default of 2.
const NoRetries = -1

// Client issues DNS queries. The zero value is usable.
type Client struct {
	// Timeout bounds each network attempt (default 3 s).
	Timeout time.Duration
	// Retries is the number of additional UDP attempts after the first.
	// 0 means the default of 2; NoRetries (or any negative value)
	// disables retries.
	Retries int
	// ForceTCP skips UDP entirely.
	ForceTCP bool

	mu   sync.Mutex
	rng  *rand.Rand
	idle []ringSock // parked sockets of every server; at most ringIdleMax

	dialed, reused, retired atomic.Uint64
}

// The ring's limits. None is an option: DESIGN.md §11 has the reason
// for each value.
const (
	// ringUses is how many exchanges one socket, and so one source
	// port, carries before it is closed.
	ringUses = 64
	// ringAge is how old a socket may be when it is drawn for reuse.
	ringAge = 2 * time.Second
	// ringIdle bounds the parked sockets per server, ringIdleMax per
	// Client, however many servers it is pointed at.
	ringIdle    = 8
	ringIdleMax = 256
)

// ringSock is one connected UDP socket of the ring. It belongs to one
// exchange at a time: while parked it sits in Client.idle, while in use
// only the exchange that drew it holds it.
type ringSock struct {
	conn   net.Conn
	rw     *udpio.Handle // reads and writes conn
	server string
	born   time.Time
	uses   int
}

// ClientStats counts what a Client's UDP sockets did. Every socket
// dialed ends up retired, idle, or in the hands of a running exchange.
type ClientStats struct {
	Dialed  uint64 // sockets connected
	Reused  uint64 // exchanges that drew a parked socket instead
	Retired uint64 // sockets closed: used up, too old, failed, or surplus
	Idle    int    // sockets parked right now
}

// Check returns nil when every socket dialed is retired or parked, and
// otherwise an error with the numbers. It holds at rest: a running
// exchange holds a socket that is neither.
func (st ClientStats) Check() error {
	return stats.Partition("Dialed = Retired + Idle", int64(st.Dialed), int64(st.Retired), int64(st.Idle))
}

// Exchange errors.
var (
	ErrIDMismatch = errors.New("dnsclient: response ID mismatch")
	ErrMismatch   = errors.New("dnsclient: response question mismatch")
)

func (c *Client) timeout() time.Duration {
	if c.Timeout == 0 {
		return 3 * time.Second
	}
	return c.Timeout
}

func (c *Client) retries() int {
	switch {
	case c.Retries < 0:
		return 0
	case c.Retries == 0:
		return 2
	default:
		return c.Retries
	}
}

// RandomSeed draws a math/rand seed from the system's entropy. Query IDs
// drawn from a generator it seeds cannot be derived from the time the
// generator was made (RFC 5452), as a clock-seeded one's can.
func RandomSeed() int64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		panic("dnsclient: no system entropy: " + err.Error())
	}
	return int64(binary.LittleEndian.Uint64(b[:]))
}

// rand returns the Client's generator, seeded by RandomSeed on first
// use: it draws the transaction IDs and the ring's picks. Callers hold
// c.mu.
func (c *Client) rand() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(RandomSeed()))
	}
	return c.rng
}

func (c *Client) randID() uint16 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return uint16(c.rand().Intn(1 << 16))
}

// Stats reports the ring's counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	idle := len(c.idle)
	c.mu.Unlock()
	return ClientStats{
		Dialed:  c.dialed.Load(),
		Reused:  c.reused.Load(),
		Retired: c.retired.Load(),
		Idle:    idle,
	}
}

// Close closes the sockets the ring has parked. The Client stays usable:
// the next exchange dials again, and one in flight parks its socket when
// it ends.
func (c *Client) Close() {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, s := range idle {
		c.retire(s)
	}
}

// Query builds and exchanges a recursion-desired query for (name, type)
// against server ("host:port"), advertising a 4096-byte EDNS0 buffer.
// ecs, when non-nil, is attached as the client subnet option.
func (c *Client) Query(server string, name dnswire.Name, t dnswire.Type, ecs *ecsopt.ClientSubnet) (*dnswire.Message, error) {
	q := dnswire.NewQuery(c.randID(), name, t)
	q.EDNS = &dnswire.EDNS{UDPSize: 4096}
	if ecs != nil {
		ecsopt.Attach(q, *ecs)
	}
	return c.Exchange(server, q)
}

// Exchange sends q to server and returns the validated response,
// retrying over UDP and falling back to TCP when the response is
// truncated. q is sent exactly as given — including an ID of 0, which is
// a legitimate transaction ID; use Query for automatic ID assignment.
//
// q is packed once, into a pooled buffer two bytes in: the UDP attempts
// send the message, the TCP fallback frames the same bytes behind their
// length, and the buffer goes back to the pool only when the exchange
// returns.
func (c *Client) Exchange(server string, q *dnswire.Message) (*dnswire.Message, error) {
	bp := bufPool.Get().(*[]byte)
	frame, err := q.AppendPack(append((*bp)[:0], 0, 0))
	if err != nil {
		bufPool.Put(bp)
		return nil, err
	}
	*bp = frame[:0] // keep any growth for the next exchange
	defer putBuf(&bufPool, bp, len(frame))
	resp := new(dnswire.Message) // every attempt decodes into it
	if !c.ForceTCP {
		data := frame[2:]
		for attempt := 0; attempt <= c.retries(); attempt++ {
			if err := c.exchangeUDP(server, q, data, resp); err != nil {
				continue
			}
			if resp.Truncated {
				break // retry the whole query over TCP
			}
			return resp, nil
		}
		// UDP exhausted or truncated: fall through to TCP.
	}
	if err := c.exchangeTCP(server, q, frame, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// ExchangeUDP sends q in a single UDP attempt with no retries and no
// TCP fallback, returning truncated responses as-is. It exists for
// callers that own transport-escalation policy themselves — the
// upstreams pool's EDNS payload ladder steps payload sizes and falls
// back to TCP on its own schedule. The response is a new Message, the
// caller's to keep.
func (c *Client) ExchangeUDP(server string, q *dnswire.Message) (*dnswire.Message, error) {
	resp := new(dnswire.Message)
	if err := c.ExchangeUDPInto(server, q, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// ExchangeUDPInto is ExchangeUDP decoding the response into resp, which
// the caller keeps from one exchange to the next (dnswire.UnpackInto), so
// an answer shaped like the last costs nothing. What resp held before is
// overwritten, its record payloads and option bytes included, and on an
// error its contents are undefined. q is packed into a pooled buffer
// that goes back once the attempt has returned.
func (c *Client) ExchangeUDPInto(server string, q, resp *dnswire.Message) error {
	bp := bufPool.Get().(*[]byte)
	data, err := q.AppendPack((*bp)[:0])
	if err != nil {
		bufPool.Put(bp)
		return err
	}
	*bp = data[:0] // keep any growth for the next exchange
	defer putBuf(&bufPool, bp, len(data))
	return c.exchangeUDP(server, q, data, resp)
}

// bufPool holds the buffers Client packs queries into.
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

// readBufPool recycles the UDP read buffers. Each stays full-size so a
// server that overshoots the advertised EDNS payload is still heard;
// only the pages a datagram touches are ever resident.
var readBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 65535)
		return &b
	},
}

// timeNow is the clock an attempt's deadline and its socket's age are
// read on; a test replaces it to age a parked socket without waiting.
var timeNow = time.Now

// errStale is a reused socket's first datagram failing to be the answer.
var errStale = errors.New("dnsclient: unexpected datagram on a reused socket")

// dialUDP connects a fresh UDP socket to server. A literal ip:port
// skips the dialer's context, timer and address-list resolution; a
// hostname still goes through it.
func dialUDP(server string, timeout time.Duration) (*net.UDPConn, error) {
	ap, err := netip.ParseAddrPort(server)
	if err != nil {
		conn, err := net.DialTimeout("udp", server, timeout)
		if err != nil {
			return nil, err
		}
		return conn.(*net.UDPConn), nil
	}
	return net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(ap))
}

// exchangeUDP is one UDP attempt under one deadline, on a connected
// socket that is this attempt's alone while it lasts — so a
// kernel-chosen source port nobody else hears on (RFC 5452) and an
// ICMP-refused upstream failing at once instead of at the deadline. The
// socket comes from the ring when one is parked for server and from a
// dial when not, and goes back only after a validated answer: any error
// closes it, so a late answer meets a closed port. A reused socket gets
// one datagram to be right; see roundTrip.
func (c *Client) exchangeUDP(server string, q *dnswire.Message, data []byte, resp *dnswire.Message) error {
	start := timeNow()
	deadline := start.Add(c.timeout())
	s, reused := c.draw(server, start)
	for {
		if !reused {
			conn, err := dialUDP(server, c.timeout())
			if err != nil {
				return err
			}
			rw, err := udpio.New(conn)
			if err != nil {
				conn.Close()
				return err
			}
			c.dialed.Add(1)
			s = ringSock{conn: conn, rw: rw, server: server, born: start}
		}
		err := roundTrip(s, deadline, q, data, reused, resp)
		if err == nil {
			c.park(s)
			return nil
		}
		c.retire(s)
		if err != errStale {
			return err
		}
		reused = false // once more, on a socket nothing was sent to yet
	}
}

// roundTrip writes data on s and reads until q's answer arrives, in
// resp, or the deadline passes. On a fresh socket a datagram that does
// not parse or does not match is skipped, since only something sent
// inside this round trip can be in its queue. On a reused one it is
// errStale: the datagram may have been placed while the socket sat idle,
// and idle time must not buy an off-path sender more guesses than a
// round trip does.
func roundTrip(s ringSock, deadline time.Time, q *dnswire.Message, data []byte, reused bool, resp *dnswire.Message) error {
	s.conn.SetDeadline(deadline)
	if _, err := s.rw.Write(data); err != nil {
		return err
	}
	// The decode copies everything it keeps out of its input, so the
	// buffer can go back to the pool while resp lives on; datagrams
	// skipped on the way are decoded into resp too.
	bp := readBufPool.Get().(*[]byte)
	buf, used := *bp, 0 // used: the most of buf a datagram has filled
	defer func() { putBuf(&readBufPool, bp, used) }()
	for {
		n, err := s.rw.Read(buf)
		if err != nil {
			return err
		}
		used = max(used, n)
		err = dnswire.UnpackInto(resp, buf[:n])
		if err == nil {
			err = validate(q, resp)
		}
		if err == nil {
			return nil
		}
		if reused {
			return errStale
		}
		// garbage or mismatched (spoofed) datagram; keep waiting
	}
}

// draw takes a socket parked for server out of the ring, uniformly among
// them, and closes instead of returning any it finds older than ringAge.
// It reports false when none is left: a busy ring means a fresh dial.
func (c *Client) draw(server string, start time.Time) (ringSock, bool) {
	for {
		var at [ringIdle]int // park keeps a server's share within this
		n := 0
		c.mu.Lock()
		for i := range c.idle {
			if c.idle[i].server == server {
				at[n] = i
				n++
			}
		}
		if n == 0 {
			c.mu.Unlock()
			return ringSock{}, false
		}
		i, last := at[c.rand().Intn(n)], len(c.idle)-1
		s := c.idle[i]
		c.idle[i], c.idle[last] = c.idle[last], ringSock{}
		c.idle = c.idle[:last]
		c.mu.Unlock()
		if start.Sub(s.born) <= ringAge {
			c.reused.Add(1)
			return s, true
		}
		c.retire(s)
	}
}

// park puts s back after a validated answer, unless that was its last
// permitted use or its server's share of the ring is full. A ring full
// of other servers' sockets gives one of them up instead, so sockets
// parked for servers no longer asked cannot keep a busy one out.
func (c *Client) park(s ringSock) {
	s.uses++
	if s.uses >= ringUses {
		c.retire(s)
		return
	}
	c.mu.Lock()
	share := 0
	for i := range c.idle {
		if c.idle[i].server == s.server {
			share++
		}
	}
	// From here s is the socket left over, if any.
	switch {
	case share >= ringIdle:
	case len(c.idle) >= ringIdleMax:
		i := c.rand().Intn(len(c.idle))
		s, c.idle[i] = c.idle[i], s
	default:
		c.idle = append(c.idle, s)
		s = ringSock{}
	}
	c.mu.Unlock()
	if s.conn != nil {
		c.retire(s)
	}
}

// retire closes a socket the ring is done with. Never under c.mu.
func (c *Client) retire(s ringSock) {
	s.conn.Close()
	c.retired.Add(1)
}

// exchangeTCP runs one query over a fresh TCP connection and decodes
// its answer into resp. frame is the packed query behind two bytes of
// room for its length.
func (c *Client) exchangeTCP(server string, q *dnswire.Message, frame []byte, resp *dnswire.Message) error {
	conn, err := net.DialTimeout("tcp", server, c.timeout())
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(c.timeout()))
	wire, err := tcpRoundTrip(conn, frame)
	if err != nil {
		return err
	}
	if err := dnswire.UnpackInto(resp, wire); err != nil {
		return err
	}
	return validate(q, resp)
}

// tcpRoundTrip writes one length-prefixed DNS message over conn and reads
// one framed response. frame is the packed message behind two bytes of
// room, which take its length. The caller owns connection deadlines.
func tcpRoundTrip(conn net.Conn, frame []byte) ([]byte, error) {
	binary.BigEndian.PutUint16(frame, uint16(len(frame)-2))
	if _, err := conn.Write(frame); err != nil {
		return nil, err
	}
	var lenBuf [2]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		return nil, err
	}
	resp := make([]byte, binary.BigEndian.Uint16(lenBuf[:]))
	if _, err := io.ReadFull(conn, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

func validate(q, resp *dnswire.Message) error {
	if resp.ID != q.ID {
		return ErrIDMismatch
	}
	if !resp.Response {
		return fmt.Errorf("dnsclient: QR bit not set")
	}
	if len(q.Questions) > 0 {
		if len(resp.Questions) == 0 || resp.Questions[0] != q.Questions[0] {
			return ErrMismatch
		}
	}
	return nil
}

// ECSFromResponse extracts the ECS option from a response, leniently.
// The bool reports presence.
func ECSFromResponse(m *dnswire.Message) (ecsopt.ClientSubnet, bool) {
	if m.EDNS == nil {
		return ecsopt.ClientSubnet{}, false
	}
	opt, ok := m.EDNS.Option(dnswire.OptionCodeECS)
	if !ok {
		return ecsopt.ClientSubnet{}, false
	}
	cs, err := ecsopt.DecodeLenient(opt)
	if err != nil {
		return ecsopt.ClientSubnet{}, false
	}
	return cs, true
}
