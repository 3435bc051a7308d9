//go:build !linux || 386

package udpio

import (
	"net"
	"net/netip"
)

// Handle is one goroutine's handle on a UDP socket. Here it calls the
// net.UDPConn methods; see the package comment.
type Handle struct {
	uc *net.UDPConn
}

// New returns a handle on uc. Each goroutine that reads or writes uc
// takes its own.
func New(uc *net.UDPConn) (*Handle, error) {
	return &Handle{uc: uc}, nil
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

// NewReader returns a Reader on uc. n, the batch size on Linux, is not
// used here.
func NewReader(uc *net.UDPConn, n int) (*Reader, error) {
	return newReader(uc, n, bufSize)
}

func newReader(uc *net.UDPConn, _, size int) (*Reader, error) {
	return &Reader{uc: uc, buf: make([]byte, size+1)}, nil
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

// NewWriter returns a Writer on uc that queues up to n datagrams.
func NewWriter(uc *net.UDPConn, n int) (*Writer, error) {
	return &Writer{uc: uc, buf: make([][]byte, 0, n), to: make([]netip.AddrPort, 0, n)}, nil
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
