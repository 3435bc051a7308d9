//go:build !386

package udpio

import (
	"errors"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

var (
	errFamily  = errors.New("udpio: an IPv4 socket reaches no IPv6 address")
	errInvalid = errors.New("udpio: invalid address")
)

// Handle is one goroutine's handle on a UDP socket: it carries one
// call's arguments and results to the callback RawConn runs, so two
// goroutines must not share one. See the package comment.
type Handle struct {
	c *UDPConn

	// One call: trap is SYS_RECVFROM or SYS_SENDTO, buf goes in, n or
	// errno comes out. peer says whether the call takes (recvfrom) or
	// gives (sendto) the peer's address in sa.
	trap  uintptr
	buf   []byte
	peer  bool
	sa    syscall.RawSockaddrAny
	salen uint32
	n     int
	errno syscall.Errno

	// io is h.sys, bound once: a method value made per call would
	// allocate.
	io func(fd uintptr) bool
}

// New returns a handle on c. Each goroutine that reads or writes c
// takes its own.
func New(c *UDPConn) *Handle {
	h := &Handle{c: c}
	h.io = h.sys
	return h
}

// Clone returns another handle on h's socket, for another goroutine.
func (h *Handle) Clone() *Handle {
	return New(h.c)
}

// ReadFrom reads one datagram into b and reports its sender. On an
// AF_INET6 socket an IPv4 sender stays 4-in-6, as with
// net's UDP sockets.
func (h *Handle) ReadFrom(b []byte) (int, netip.AddrPort, error) {
	if err := h.call(syscall.SYS_RECVFROM, b, true); err != nil {
		return 0, netip.AddrPort{}, err
	}
	return h.n, addrPort(&h.sa), nil
}

// WriteTo sends b to to.
func (h *Handle) WriteTo(b []byte, to netip.AddrPort) (int, error) {
	var err error
	if h.salen, err = putSockaddr(&h.sa, h.c.inet6, to); err != nil {
		return 0, err
	}
	if err := h.call(syscall.SYS_SENDTO, b, true); err != nil {
		return 0, err
	}
	return h.n, nil
}

// Read reads one datagram into b from a connected socket.
func (h *Handle) Read(b []byte) (int, error) {
	if err := h.call(syscall.SYS_RECVFROM, b, false); err != nil {
		return 0, err
	}
	return h.n, nil
}

// Write sends b on a connected socket.
func (h *Handle) Write(b []byte) (int, error) {
	if err := h.call(syscall.SYS_SENDTO, b, false); err != nil {
		return 0, err
	}
	return h.n, nil
}

// call runs one system call through RawConn, which parks the goroutine
// while the callback reports EAGAIN and returns the deadline or the
// close that ends the wait as its own error.
func (h *Handle) call(trap uintptr, b []byte, peer bool) error {
	h.trap, h.buf, h.peer, h.errno = trap, b, peer, 0
	var err error
	sys := "recvfrom"
	if trap == syscall.SYS_RECVFROM {
		err = h.c.rc.Read(h.io)
	} else {
		err = h.c.rc.Write(h.io)
		sys = "sendto"
	}
	h.buf = nil
	if err == nil && h.errno != 0 {
		return os.NewSyscallError(sys, h.errno)
	}
	return pollErr(err)
}

// zero stands in for an empty buffer's first byte.
var zero uintptr

// sys is the RawConn callback: recvfrom and sendto take the same
// arguments. It retries across EINTR and reports false only on EAGAIN,
// which sends RawConn to wait for the socket. The buffer and address
// live in heap memory h keeps, so they stay put across the system call.
func (h *Handle) sys(fd uintptr) bool {
	p := uintptr(unsafe.Pointer(&zero))
	if len(h.buf) > 0 {
		p = uintptr(unsafe.Pointer(&h.buf[0]))
	}
	var sa, salen uintptr
	switch {
	case !h.peer:
	case h.trap == syscall.SYS_RECVFROM:
		h.salen = uint32(unsafe.Sizeof(h.sa))
		sa, salen = uintptr(unsafe.Pointer(&h.sa)), uintptr(unsafe.Pointer(&h.salen))
	default:
		sa, salen = uintptr(unsafe.Pointer(&h.sa)), uintptr(h.salen)
	}
	for {
		n, _, e := syscall.RawSyscall6(h.trap, fd, p, uintptr(len(h.buf)), 0, sa, salen)
		switch e {
		case 0:
			h.n = int(n)
			return true
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			h.errno = e
			return true
		}
	}
}

// addrPort decodes a sockaddr the kernel filled in.
func addrPort(rsa *syscall.RawSockaddrAny) netip.AddrPort {
	switch rsa.Addr.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), getPort(&sa.Port))
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(rsa))
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).WithZone(zoneName(sa.Scope_id)), getPort(&sa.Port))
	}
	return netip.AddrPort{}
}

// putSockaddr encodes to in rsa in a socket's family and returns its
// length: an AF_INET socket takes only IPv4, an AF_INET6 one any address
// (IPv4 as 4-in-6), as net's UDP sockets do.
func putSockaddr(rsa *syscall.RawSockaddrAny, inet6 bool, to netip.AddrPort) (uint32, error) {
	a := to.Addr()
	if !inet6 {
		if !a.Is4() {
			return 0, errFamily
		}
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		*sa = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: a.As4()}
		putPort(&sa.Port, to.Port())
		return syscall.SizeofSockaddrInet4, nil
	}
	if !a.IsValid() {
		return 0, errInvalid
	}
	scope, err := scopeID(a.Zone())
	if err != nil {
		return 0, err
	}
	sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(rsa))
	*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Addr: a.As16(), Scope_id: scope}
	putPort(&sa.Port, to.Port())
	return syscall.SizeofSockaddrInet6, nil
}

// A sockaddr's port is in network byte order whatever the host's.
func getPort(p *uint16) uint16 {
	b := (*[2]byte)(unsafe.Pointer(p))
	return uint16(b[0])<<8 | uint16(b[1])
}

func putPort(p *uint16, port uint16) {
	b := (*[2]byte)(unsafe.Pointer(p))
	b[0], b[1] = byte(port>>8), byte(port)
}

// zoneName is an IPv6 scope ID as a zone: numeric, so reading a
// link-local sender costs no interface lookup. Zero is no zone.
func zoneName(scope uint32) string {
	if scope == 0 {
		return ""
	}
	return strconv.FormatUint(uint64(scope), 10)
}

// scopeID is zoneName's inverse; it also takes an interface's name,
// whose index it reads from /sys/class/net/<name>/ifindex.
func scopeID(zone string) (uint32, error) {
	if zone == "" {
		return 0, nil
	}
	if n, err := strconv.ParseUint(zone, 10, 32); err == nil {
		return uint32(n), nil
	}
	if strings.ContainsRune(zone, '/') || zone == "." || zone == ".." {
		return 0, errors.New("udpio: no interface " + zone)
	}
	b, err := os.ReadFile("/sys/class/net/" + zone + "/ifindex")
	if err != nil {
		return 0, errors.New("udpio: no interface " + zone)
	}
	n, err := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 32)
	if err != nil {
		return 0, err
	}
	return uint32(n), nil
}
