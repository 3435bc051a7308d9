//go:build !386

package udpio

import (
	"net/netip"
	"os"
	"syscall"
	"unsafe"
)

// mmsghdr is struct mmsghdr: one datagram of a recvmmsg or sendmmsg
// call and, on return, its length. Go pads it to the C size on every
// architecture, and Msghdr's and Iovec's length fields take their width
// from the architecture, so both are set from untyped constants or
// through SetLen.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
}

// batch is the kernel's view of n datagrams: header i points at iovec i
// and sockaddr i for good, so a call only fills them in.
type batch struct {
	c    *UDPConn
	hdrs []mmsghdr
	iovs []syscall.Iovec
	sas  []syscall.RawSockaddrAny
}

func newBatch(c *UDPConn, n int) batch {
	b := batch{
		c:    c,
		hdrs: make([]mmsghdr, n),
		iovs: make([]syscall.Iovec, n),
		sas:  make([]syscall.RawSockaddrAny, n),
	}
	for i := range b.hdrs {
		h := &b.hdrs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&b.sas[i]))
		h.Iov, h.Iovlen = &b.iovs[i], 1
	}
	return b
}

// Reader takes datagrams off a socket in batches, into buffers of its
// own. One goroutine reads with it, and closes it after its last read.
type Reader struct {
	batch
	bufs  []byte // one buffer per datagram, back to back, in a mapping of their own
	size  int    // bytes per buffer
	n     int    // datagrams the last call took
	errno syscall.Errno
	io    func(fd uintptr) bool // r.recv, bound once
	first func(fd uintptr) bool // r.recvFirst, bound once

	// ReadBacklog's probe for the datagrams queued behind its first:
	// waited says the first had to be waited for, misses counts the
	// probes in a row that found nothing, and skip the reads that did
	// not wait still to pass before the next probe.
	waited       bool
	misses, skip int
	probes       int // probes run, for the tests
}

// maxSkip caps ReadBacklog's backoff: after six empty probes in a row,
// one read in 64 that finds its datagram queued still probes.
const maxSkip = 63

// NewReader returns a Reader on c that takes up to n datagrams a call,
// each into a buffer of 65 535 bytes.
func NewReader(c *UDPConn, n int) (*Reader, error) {
	return newReader(c, n, bufSize)
}

// newReader maps the buffers rather than allocating them: only the
// pages the kernel writes become resident, and the Go heap, whose
// collector paces itself by the live bytes, never holds them.
func newReader(c *UDPConn, n, size int) (*Reader, error) {
	bufs, err := syscall.Mmap(-1, 0, n*size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, os.NewSyscallError("mmap", err)
	}
	r := &Reader{batch: newBatch(c, n), bufs: bufs, size: size}
	for i := range r.iovs {
		r.iovs[i].Base = &r.bufs[i*size]
		r.iovs[i].SetLen(size)
	}
	r.io, r.first = r.recv, r.recvFirst
	return r, nil
}

// Close unmaps the Reader's buffers. The Reader and every datagram it
// returned are unusable after it.
func (r *Reader) Close() error {
	if r.bufs == nil {
		return nil
	}
	// The runtime may map its heap where the buffers were: no pointer
	// the collector scans may be left pointing there.
	for i := range r.iovs {
		r.iovs[i].Base = nil
	}
	err := syscall.Munmap(r.bufs)
	r.bufs = nil
	return err
}

// Read waits for a datagram and takes it, with every datagram queued
// behind it up to the Reader's n, in one recvmmsg. It returns how many
// it took; Datagram reads each.
func (r *Reader) Read() (int, error) {
	return r.read(r.io, "recvmmsg")
}

// ReadBacklog takes one datagram with recvfrom, waiting for it as
// Handle.ReadFrom does. When that datagram was already queued, it then
// takes the datagrams queued behind it, up to the Reader's n, in one
// recvmmsg that never waits: a closed loop's query, which finds the
// reader idle, costs what it costs ReadFrom, and a backlog is drained in
// batches. A probe that finds nothing backs off: after m of them in a
// row, the next 2^m − 1 reads that did not wait skip it (at most 63),
// and a probe that finds a datagram ends the backoff. It returns how
// many datagrams it took; Datagram reads each.
func (r *Reader) ReadBacklog() (int, error) {
	r.waited = false
	return r.read(r.first, "recvfrom")
}

func (r *Reader) read(io func(fd uintptr) bool, sys string) (int, error) {
	r.n, r.errno = 0, 0
	if err := r.c.rc.Read(io); err != nil {
		return 0, pollErr(err)
	}
	if r.errno != 0 {
		return 0, os.NewSyscallError(sys, r.errno)
	}
	return r.n, nil
}

// Datagram returns the i-th datagram the last Read or ReadBacklog took
// and its sender, which on an AF_INET6 socket reads an IPv4 peer as
// 4-in-6, as ReadFrom does. The bytes are the Reader's until its next
// read. A datagram
// longer than a buffer is never returned cut: ok is false and b nil.
func (r *Reader) Datagram(i int) (b []byte, from netip.AddrPort, ok bool) {
	from = addrPort(&r.sas[i])
	if r.hdrs[i].hdr.Flags&syscall.MSG_TRUNC != 0 {
		return nil, from, false
	}
	off := i * r.size
	return r.bufs[off : off+int(r.hdrs[i].len)], from, true
}

// recv is Read's RawConn callback; it retries across EINTR and reports
// false only on EAGAIN, as Handle.sys does.
func (r *Reader) recv(fd uintptr) bool {
	for i := range r.hdrs {
		r.hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(r.sas[i]))
	}
	for {
		n, _, e := syscall.RawSyscall6(syscall.SYS_RECVMMSG, fd, uintptr(unsafe.Pointer(&r.hdrs[0])), uintptr(len(r.hdrs)), 0, 0, 0)
		switch e {
		case 0:
			r.n = int(n)
			return true
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			r.errno = e
			return true
		}
	}
}

// recvFirst is ReadBacklog's RawConn callback: a recvfrom into the first
// buffer, whose header it fills in as recvmmsg would, then the probe. It
// retries across EINTR and reports false only on EAGAIN. MSG_TRUNC makes
// recvfrom return a datagram's whole length, so a cut one shows.
func (r *Reader) recvFirst(fd uintptr) bool {
	h := &r.hdrs[0]
	h.hdr.Namelen = uint32(unsafe.Sizeof(r.sas[0]))
	for {
		n, _, e := syscall.RawSyscall6(syscall.SYS_RECVFROM, fd, uintptr(unsafe.Pointer(&r.bufs[0])), uintptr(r.size),
			syscall.MSG_TRUNC, uintptr(unsafe.Pointer(&r.sas[0])), uintptr(unsafe.Pointer(&h.hdr.Namelen)))
		switch e {
		case 0:
			h.len, h.hdr.Flags = uint32(n), 0
			if int(n) > r.size {
				h.hdr.Flags = syscall.MSG_TRUNC
			}
			r.n = 1
			if !r.waited {
				r.probe(fd)
			}
			return true
		case syscall.EINTR:
		case syscall.EAGAIN:
			r.waited = true
			return false
		default:
			r.errno = e
			return true
		}
	}
}

// probe takes the datagrams queued behind the first, into the other
// buffers, in one recvmmsg with MSG_DONTWAIT, unless the backoff skips
// it. An error other than EINTR counts as finding nothing, and the
// datagram already taken is still returned.
func (r *Reader) probe(fd uintptr) {
	if len(r.hdrs) == 1 {
		return
	}
	if r.skip > 0 {
		r.skip--
		return
	}
	r.probes++
	for i := 1; i < len(r.hdrs); i++ {
		r.hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(r.sas[i]))
	}
	for {
		n, _, e := syscall.RawSyscall6(syscall.SYS_RECVMMSG, fd, uintptr(unsafe.Pointer(&r.hdrs[1])), uintptr(len(r.hdrs)-1), syscall.MSG_DONTWAIT, 0, 0)
		if e == syscall.EINTR {
			continue
		}
		if e == 0 && n > 0 {
			r.n += int(n)
			r.misses, r.skip = 0, 0
			return
		}
		r.misses = min(r.misses+1, 6)
		r.skip = min(1<<r.misses-1, maxSkip)
		return
	}
}

// Writer sends datagrams in batches straight from its caller's bytes.
// One goroutine writes with it.
type Writer struct {
	batch
	n     int                   // datagrams queued
	done  int                   // of those, how many the current Flush has sent or seen refused
	errno []syscall.Errno       // why the kernel refused datagram i
	io    func(fd uintptr) bool // w.send, bound once
}

// NewWriter returns a Writer on c that queues up to n datagrams.
func NewWriter(c *UDPConn, n int) *Writer {
	w := &Writer{batch: newBatch(c, n), errno: make([]syscall.Errno, n)}
	w.io = w.send
	return w
}

// Add queues b to go to to. b is not copied: it must stay as it is until
// Flush returns. Add queues nothing and returns an error when the queue
// is full or to cannot be reached in the socket's family.
func (w *Writer) Add(b []byte, to netip.AddrPort) error {
	if w.n == len(w.hdrs) {
		return errFull
	}
	salen, err := putSockaddr(&w.sas[w.n], w.c.inet6, to)
	if err != nil {
		return err
	}
	iov := &w.iovs[w.n]
	iov.Base = (*byte)(unsafe.Pointer(&zero))
	if len(b) > 0 {
		iov.Base = &b[0]
	}
	iov.SetLen(len(b))
	w.hdrs[w.n].hdr.Namelen = salen
	w.n++
	return nil
}

// Flush sends the queued datagrams in order with sendmmsg and empties
// the queue. After the call, refused(i, err) hears of each datagram the
// kernel refused, by its index in the queue; the datagrams after one it
// refused are still sent. A Close or deadline that ends a wait for the
// socket refuses every datagram not yet sent.
func (w *Writer) Flush(refused func(i int, err error)) {
	if w.n == 0 {
		return
	}
	w.done = 0
	err := pollErr(w.c.rc.Write(w.io))
	for i := 0; i < w.n; i++ {
		switch {
		case w.errno[i] != 0:
			refused(i, os.NewSyscallError("sendmmsg", w.errno[i]))
			w.errno[i] = 0
		case i >= w.done:
			refused(i, err)
		}
		w.iovs[i].Base = nil // keep no caller's bytes alive
	}
	w.n = 0
}

// send is Flush's RawConn callback. sendmmsg stops at the first datagram
// the kernel refuses and reports it only when it is the first of the
// call, so each call starts at the first datagram not yet dealt with.
func (w *Writer) send(fd uintptr) bool {
	for w.done < w.n {
		n, _, e := syscall.RawSyscall6(sysSENDMMSG, fd, uintptr(unsafe.Pointer(&w.hdrs[w.done])), uintptr(w.n-w.done), 0, 0, 0)
		switch e {
		case 0:
			w.done += int(n)
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			w.errno[w.done] = e
			w.done++
		}
	}
	return true
}
