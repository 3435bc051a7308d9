//go:build !linux || 386

package udpio

import (
	"context"
	"net"
	"net/netip"
	"time"
)

// UDPConn is a UDP socket: here net's. See the package comment.
type UDPConn struct {
	uc *net.UDPConn
}

// ListenUDP opens a UDP socket bound to addr; port 0 lets the kernel
// pick. An invalid or unspecified address binds every local address.
func ListenUDP(addr netip.AddrPort) (*UDPConn, error) {
	uc, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(addr))
	if err != nil {
		return nil, err
	}
	return &UDPConn{uc: uc}, nil
}

// DialUDP opens a UDP socket connected to to.
func DialUDP(to netip.AddrPort) (*UDPConn, error) {
	uc, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(to))
	if err != nil {
		return nil, err
	}
	return &UDPConn{uc: uc}, nil
}

// LocalAddr is the address the socket is bound to.
func (c *UDPConn) LocalAddr() netip.AddrPort {
	return c.uc.LocalAddr().(*net.UDPAddr).AddrPort()
}

// SetDeadline sets the time after which every wait for the socket ends;
// zero means none.
func (c *UDPConn) SetDeadline(t time.Time) error { return c.uc.SetDeadline(t) }

// SetReadDeadline is SetDeadline for reads alone.
func (c *UDPConn) SetReadDeadline(t time.Time) error { return c.uc.SetReadDeadline(t) }

// Close closes the socket.
func (c *UDPConn) Close() error { return c.uc.Close() }

// Listener is a listening TCP socket: here net's.
type Listener struct {
	ln *net.TCPListener
}

// ListenTCP opens a TCP socket listening on addr.
func ListenTCP(addr netip.AddrPort) (*Listener, error) {
	ln, err := net.ListenTCP("tcp", net.TCPAddrFromAddrPort(addr))
	if err != nil {
		return nil, err
	}
	return &Listener{ln: ln}, nil
}

// Accept waits for a connection and returns it with its peer's address.
func (l *Listener) Accept() (Conn, netip.AddrPort, error) {
	c, err := l.ln.AcceptTCP()
	if err != nil {
		return nil, netip.AddrPort{}, err
	}
	return c, c.RemoteAddr().(*net.TCPAddr).AddrPort(), nil
}

// Close stops listening.
func (l *Listener) Close() error { return l.ln.Close() }

// DialTCP connects a TCP socket to to, waiting at most timeout and no
// longer than ctx lasts.
func DialTCP(ctx context.Context, to netip.AddrPort, timeout time.Duration) (Conn, error) {
	d := net.Dialer{Timeout: timeout}
	c, err := d.DialContext(ctx, "tcp", to.String())
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Handle is one goroutine's handle on a UDP socket. Here it calls the
// net.UDPConn methods; see the package comment.
type Handle struct {
	uc *net.UDPConn
}

// New returns a handle on c. Each goroutine that reads or writes c
// takes its own.
func New(c *UDPConn) *Handle {
	return &Handle{uc: c.uc}
}

// Clone returns another handle on h's socket, for another goroutine.
func (h *Handle) Clone() *Handle {
	return &Handle{uc: h.uc}
}

// ReadFrom reads one datagram into b and reports its sender.
func (h *Handle) ReadFrom(b []byte) (int, netip.AddrPort, error) {
	return h.uc.ReadFromUDPAddrPort(b)
}

// WriteTo sends b to to.
func (h *Handle) WriteTo(b []byte, to netip.AddrPort) (int, error) {
	return h.uc.WriteToUDPAddrPort(b, to)
}

// Read reads one datagram into b from a connected socket.
func (h *Handle) Read(b []byte) (int, error) {
	return h.uc.Read(b)
}

// Write sends b on a connected socket.
func (h *Handle) Write(b []byte) (int, error) {
	return h.uc.Write(b)
}

// Reader takes datagrams off a socket into a buffer of its own. Here it
// takes one a call; see the package comment.
type Reader struct {
	uc   *net.UDPConn
	buf  []byte // one byte past a datagram's size, so a cut shows
	n    int
	from netip.AddrPort
}

// NewReader returns a Reader on c. n, the batch size on Linux, is not
// used here.
func NewReader(c *UDPConn, n int) (*Reader, error) {
	return newReader(c, n, bufSize)
}

func newReader(c *UDPConn, _, size int) (*Reader, error) {
	return &Reader{uc: c.uc, buf: make([]byte, size+1)}, nil
}

// Read waits for a datagram and takes it. It returns 1.
func (r *Reader) Read() (int, error) {
	n, from, err := r.uc.ReadFromUDPAddrPort(r.buf)
	if err != nil {
		return 0, err
	}
	r.n, r.from = n, from
	return 1, nil
}

// ReadBacklog is Read: here no call takes more than one datagram.
func (r *Reader) ReadBacklog() (int, error) {
	return r.Read()
}

// Close does nothing here: the buffer is the Go heap's.
func (r *Reader) Close() error {
	return nil
}

// Datagram returns the datagram the last Read took and its sender. A
// datagram longer than the buffer is never returned cut: ok is false
// and b nil.
func (r *Reader) Datagram(int) (b []byte, from netip.AddrPort, ok bool) {
	if r.n == len(r.buf) {
		return nil, r.from, false
	}
	return r.buf[:r.n], r.from, true
}

// Writer queues datagrams from its caller's bytes and sends them one at
// a time; see the package comment.
type Writer struct {
	uc  *net.UDPConn
	buf [][]byte
	to  []netip.AddrPort
}

// NewWriter returns a Writer on c that queues up to n datagrams.
func NewWriter(c *UDPConn, n int) *Writer {
	return &Writer{uc: c.uc, buf: make([][]byte, 0, n), to: make([]netip.AddrPort, 0, n)}
}

// Add queues b to go to to; b must stay as it is until Flush returns.
// It queues nothing and returns an error when the queue is full. A
// destination the socket cannot reach is refused by Flush.
func (w *Writer) Add(b []byte, to netip.AddrPort) error {
	if len(w.buf) == cap(w.buf) {
		return errFull
	}
	w.buf, w.to = append(w.buf, b), append(w.to, to)
	return nil
}

// Flush sends the queued datagrams in order and empties the queue;
// refused(i, err) hears of each one refused, by its index in the queue.
func (w *Writer) Flush(refused func(i int, err error)) {
	for i, b := range w.buf {
		if _, err := w.uc.WriteToUDPAddrPort(b, w.to[i]); err != nil {
			refused(i, err)
		}
		w.buf[i] = nil
	}
	w.buf, w.to = w.buf[:0], w.to[:0]
}
