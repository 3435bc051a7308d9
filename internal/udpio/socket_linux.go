//go:build !386

package udpio

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"syscall"
	"time"
)

// UDPConn is a UDP socket udpio opened. Handles, Readers and Writers
// read and write it; the UDPConn sets the deadlines they wait under and
// closes the socket.
type UDPConn struct {
	f     *os.File
	rc    syscall.RawConn
	inet6 bool // AF_INET6, dual-stack: it reaches and hears IPv4 as 4-in-6
}

// ListenUDP opens a UDP socket bound to addr; port 0 lets the kernel
// pick. An invalid or unspecified address binds every local address of
// both families.
func ListenUDP(addr netip.AddrPort) (*UDPConn, error) {
	fd, inet6, err := bindSocket(syscall.SOCK_DGRAM, addr)
	if err != nil {
		return nil, fmt.Errorf("listen udp %v: %w", addr, err)
	}
	return newUDPConn(fd, inet6)
}

// DialUDP opens a UDP socket connected to to: it sends only there and
// hears only from there, and an ICMP error from there fails its next
// call.
func DialUDP(to netip.AddrPort) (*UDPConn, error) {
	fd, inet6, err := open(syscall.SOCK_DGRAM, to.Addr(), false)
	if err == nil {
		if err = connect(fd, inet6, to); err != nil {
			syscall.Close(fd)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("dial udp %v: %w", to, err)
	}
	return newUDPConn(fd, inet6)
}

func newUDPConn(fd int, inet6 bool) (*UDPConn, error) {
	f := os.NewFile(uintptr(fd), "udp")
	rc, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &UDPConn{f: f, rc: rc, inet6: inet6}, nil
}

// LocalAddr is the address the socket is bound to, as getsockname reads
// it: a dual-stack wildcard reads [::].
func (c *UDPConn) LocalAddr() netip.AddrPort {
	var ap netip.AddrPort
	c.rc.Control(func(fd uintptr) {
		if sa, err := syscall.Getsockname(int(fd)); err == nil {
			ap = fromSockaddr(sa)
		}
	})
	return ap
}

// SetDeadline sets the time after which every wait for the socket ends
// with os.ErrDeadlineExceeded; zero means none.
func (c *UDPConn) SetDeadline(t time.Time) error { return c.f.SetDeadline(t) }

// SetReadDeadline is SetDeadline for reads alone.
func (c *UDPConn) SetReadDeadline(t time.Time) error { return c.f.SetReadDeadline(t) }

// Close closes the socket; a call waiting on it returns os.ErrClosed.
func (c *UDPConn) Close() error { return c.f.Close() }

// Listener is a listening TCP socket udpio opened.
type Listener struct {
	f  *os.File
	rc syscall.RawConn
}

// listenBacklog asks for the longest accept queue; the kernel cuts it to
// net.core.somaxconn, the length net asks for.
const listenBacklog = 65535

// ListenTCP opens a TCP socket listening on addr, with SO_REUSEADDR set
// so a port whose last connections are in TIME_WAIT binds again. An
// invalid or unspecified address listens on every local address of both
// families.
func ListenTCP(addr netip.AddrPort) (*Listener, error) {
	fd, _, err := bindSocket(syscall.SOCK_STREAM, addr)
	if err != nil {
		return nil, fmt.Errorf("listen tcp %v: %w", addr, err)
	}
	f := os.NewFile(uintptr(fd), "tcp")
	rc, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Listener{f: f, rc: rc}, nil
}

// Accept waits for a connection and returns it with its peer's address.
// A Close of the listener ends the wait with os.ErrClosed.
func (l *Listener) Accept() (Conn, netip.AddrPort, error) {
	var (
		nfd   int
		sa    syscall.Sockaddr
		errno error
	)
	err := l.rc.Read(func(fd uintptr) bool {
		for {
			nfd, sa, errno = syscall.Accept4(int(fd), syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC)
			switch errno {
			case syscall.EINTR, syscall.ECONNABORTED: // a peer gone before its turn is no error
			case syscall.EAGAIN:
				return false
			default:
				return true
			}
		}
	})
	if err == nil && errno != nil {
		err = os.NewSyscallError("accept4", errno)
	} else {
		err = pollErr(err)
	}
	if err != nil {
		return nil, netip.AddrPort{}, fmt.Errorf("accept tcp: %w", err)
	}
	return newTCPConn(nfd, "tcp"), fromSockaddr(sa), nil
}

// Close stops listening; an Accept waiting returns os.ErrClosed.
func (l *Listener) Close() error { return l.f.Close() }

// DialTCP connects a TCP socket to to. The connect waits at most
// timeout, less when ctx's deadline is sooner, and a cancel of ctx ends
// it with ctx's error. A refused connect fails as soon as the refusal
// arrives.
func DialTCP(ctx context.Context, to netip.AddrPort, timeout time.Duration) (Conn, error) {
	f, err := dialTCP(ctx, to, timeout)
	if err != nil {
		return nil, fmt.Errorf("dial tcp %v: %w", to, err)
	}
	return f, nil
}

func dialTCP(ctx context.Context, to netip.AddrPort, timeout time.Duration) (*os.File, error) {
	if err := ctx.Err(); err != nil {
		return nil, err // no connection is opened for a caller gone
	}
	fd, inet6, err := open(syscall.SOCK_STREAM, to.Addr(), false)
	if err != nil {
		return nil, err
	}
	err = connect(fd, inet6, to)
	// An interrupted connect goes on, as one in progress does.
	inProgress := errors.Is(err, syscall.EINPROGRESS) || errors.Is(err, syscall.EINTR)
	if err != nil && !inProgress {
		syscall.Close(fd)
		return nil, err
	}
	f := newTCPConn(fd, "tcp "+to.String())
	if inProgress {
		if err := waitConnected(ctx, f, timeout); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// waitConnected waits for a non-blocking connect to end: until the
// socket is writable and SO_ERROR says how the connect went, with
// getpeername to tell a spurious wake-up from a connection made. A
// cancel of ctx ends the wait through a write deadline in the past.
func waitConnected(ctx context.Context, f *os.File, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	f.SetWriteDeadline(deadline)
	stop := func() bool { return true }
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { f.SetWriteDeadline(time.Unix(1, 0)) })
	}
	rc, err := f.SyscallConn()
	if err != nil {
		stop()
		return err
	}
	var errno error
	err = rc.Write(func(fd uintptr) bool {
		n, err := syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_ERROR)
		if err != nil {
			errno = os.NewSyscallError("getsockopt", err)
			return true
		}
		switch e := syscall.Errno(n); e {
		case syscall.EINPROGRESS, syscall.EALREADY, syscall.EINTR:
			return false
		case 0, syscall.EISCONN:
			_, err := syscall.Getpeername(int(fd))
			return err == nil
		default:
			errno = os.NewSyscallError("connect", e)
			return true
		}
	})
	if !stop() {
		return ctx.Err() // the cancel ran, and its deadline may land after any reset
	}
	if err != nil {
		return pollErr(err)
	}
	if errno == nil {
		f.SetWriteDeadline(time.Time{})
	}
	return errno
}

// newTCPConn wraps a connected TCP socket, with TCP_NODELAY set as net
// sets it: a DNS message goes out in one write, and Nagle would hold the
// next one back until the peer acknowledges the last.
func newTCPConn(fd int, name string) *os.File {
	syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1)
	return os.NewFile(uintptr(fd), name)
}

// open makes a non-blocking, close-on-exec socket of typ for an address
// a: AF_INET for an IPv4 address (4-in-6 included), and AF_INET6 with
// IPV6_V6ONLY off for any other, or for a listen on an unspecified or
// invalid one. A host without IPv6 listens on such an address with
// AF_INET. It reports whether the socket is AF_INET6.
func open(typ int, a netip.Addr, listen bool) (fd int, inet6 bool, err error) {
	wildcard := listen && (!a.IsValid() || a.IsUnspecified())
	if !wildcard && !a.IsValid() {
		return -1, false, errInvalid
	}
	inet6 = wildcard || !a.Unmap().Is4()
	family := syscall.AF_INET
	if inet6 {
		family = syscall.AF_INET6
	}
	fd, err = syscall.Socket(family, typ|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err == syscall.EAFNOSUPPORT && wildcard {
		inet6 = false
		fd, err = syscall.Socket(syscall.AF_INET, typ|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	}
	if err != nil {
		return -1, false, os.NewSyscallError("socket", err)
	}
	if inet6 {
		if err := syscall.SetsockoptInt(fd, syscall.IPPROTO_IPV6, syscall.IPV6_V6ONLY, 0); err != nil {
			syscall.Close(fd)
			return -1, false, os.NewSyscallError("setsockopt", err)
		}
	}
	return fd, inet6, nil
}

// bindSocket opens a socket of typ for addr and binds it there; a TCP
// socket sets SO_REUSEADDR first and listens.
func bindSocket(typ int, addr netip.AddrPort) (fd int, inet6 bool, err error) {
	if fd, inet6, err = open(typ, addr.Addr(), true); err != nil {
		return -1, false, err
	}
	stream := typ == syscall.SOCK_STREAM
	if stream {
		err = os.NewSyscallError("setsockopt", syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1))
	}
	var sa syscall.Sockaddr
	if err == nil {
		sa, err = sockaddr(inet6, addr)
	}
	if err == nil {
		err = os.NewSyscallError("bind", syscall.Bind(fd, sa))
	}
	if err == nil && stream {
		err = os.NewSyscallError("listen", syscall.Listen(fd, listenBacklog))
	}
	if err != nil {
		syscall.Close(fd)
		return -1, false, err
	}
	return fd, inet6, nil
}

// connect starts connecting fd to to; on a non-blocking stream socket it
// fails with EINPROGRESS while the handshake runs.
func connect(fd int, inet6 bool, to netip.AddrPort) error {
	sa, err := sockaddr(inet6, to)
	if err != nil {
		return err
	}
	return os.NewSyscallError("connect", syscall.Connect(fd, sa))
}

// sockaddr is ap in a socket's family: an AF_INET socket takes only
// IPv4, an AF_INET6 one any address, IPv4 as 4-in-6. An invalid or
// unspecified address is the family's own unspecified one.
func sockaddr(inet6 bool, ap netip.AddrPort) (syscall.Sockaddr, error) {
	a, port := ap.Addr(), int(ap.Port())
	switch {
	case !a.IsValid() || a.IsUnspecified():
		if inet6 {
			return &syscall.SockaddrInet6{Port: port}, nil
		}
		return &syscall.SockaddrInet4{Port: port}, nil
	case !inet6:
		if !a.Unmap().Is4() {
			return nil, errFamily
		}
		return &syscall.SockaddrInet4{Port: port, Addr: a.Unmap().As4()}, nil
	}
	scope, err := scopeID(a.Zone())
	if err != nil {
		return nil, err
	}
	return &syscall.SockaddrInet6{Port: port, ZoneId: scope, Addr: a.As16()}, nil
}

// fromSockaddr is sockaddr's inverse, for what the kernel reports.
func fromSockaddr(sa syscall.Sockaddr) netip.AddrPort {
	switch sa := sa.(type) {
	case *syscall.SockaddrInet4:
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), uint16(sa.Port))
	case *syscall.SockaddrInet6:
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).WithZone(zoneName(sa.ZoneId)), uint16(sa.Port))
	}
	return netip.AddrPort{}
}

// pollErr is the error a RawConn wait ended with as os.File's own
// methods name it: a deadline's os.ErrDeadlineExceeded, or os.ErrClosed
// for a Close, the wait's only other end.
func pollErr(err error) error {
	if err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		return err
	}
	return os.ErrClosed
}
