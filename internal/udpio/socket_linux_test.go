//go:build !386

package udpio

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// family reads a socket's family and bound address, as "inet 127.0.0.1".
func family(t *testing.T, rc syscall.RawConn) string {
	t.Helper()
	var dom int
	var sa syscall.Sockaddr
	var err error
	rc.Control(func(fd uintptr) {
		if dom, err = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_DOMAIN); err == nil {
			sa, err = syscall.Getsockname(int(fd))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	name := "inet6"
	if dom == syscall.AF_INET {
		name = "inet"
	}
	return name + " " + fromSockaddr(sa).Addr().String()
}

// loopbackPair is a connection dialed to a listener on addr at address
// dial: the listener, both ends of the connection and the client's
// address as Accept reports it, each closed at the end of the test.
func loopbackPair(t *testing.T, addr, dial string) (ln *Listener, client, server Conn, from netip.AddrPort) {
	t.Helper()
	ln, err := ListenTCP(netip.MustParseAddrPort(addr))
	if err != nil {
		t.Skipf("no listener on %s here: %v", addr, err)
	}
	t.Cleanup(func() { ln.Close() })
	to := netip.AddrPortFrom(netip.MustParseAddr(dial), tcpPort(t, ln))
	if client, err = DialTCP(context.Background(), to, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	if server, from, err = ln.Accept(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	return ln, client, server, from
}

func tcpPort(t *testing.T, ln *Listener) uint16 {
	var sa syscall.Sockaddr
	var err error
	ln.rc.Control(func(fd uintptr) { sa, err = syscall.Getsockname(int(fd)) })
	if err != nil {
		t.Fatal(err)
	}
	return fromSockaddr(sa).Port()
}

// parked runs call in a goroutine, lets it park, runs unblock and
// returns call's error, or fails the test when unblock leaves it parked.
func parked(t *testing.T, call func() error, unblock func()) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- call() }()
	time.Sleep(20 * time.Millisecond)
	unblock()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("the call stayed parked")
		return nil
	}
}

// stalledListener is a loopback port whose accept queue is full: a
// listener with a backlog of 0 that never accepts, filled with
// connections until one more connect waits, since the kernel drops the
// SYN of each connection it has no room for.
func stalledListener(t *testing.T) netip.AddrPort {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	to := fromSockaddr(sa)
	for i := 0; i < 8; i++ {
		c, err := DialTCP(context.Background(), to, 100*time.Millisecond)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return to
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
	}
	t.Skip("the accept queue never filled")
	return to
}

// TestDialTCPWaits: a connect that gets no answer ends at its timeout
// with os.ErrDeadlineExceeded, as net's DialTimeout ends with its i/o
// timeout, and a cancel of the context ends it at once with the
// context's error.
func TestDialTCPWaits(t *testing.T) {
	to := stalledListener(t)
	start := time.Now()
	_, err := DialTCP(context.Background(), to, 100*time.Millisecond)
	if took := time.Since(start); !errors.Is(err, os.ErrDeadlineExceeded) || took < 100*time.Millisecond || took > 2*time.Second {
		t.Fatalf("the unanswered connect ended after %v with %v, want os.ErrDeadlineExceeded at 100ms", took, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start = time.Now()
	_, err = DialTCP(ctx, to, 5*time.Second)
	if took := time.Since(start); !errors.Is(err, context.Canceled) || took > 2*time.Second {
		t.Fatalf("the cancelled connect ended after %v with %v, want context.Canceled at once", took, err)
	}
}

// TestSocketParity holds udpio's sockets to what net's do. Each row's
// want is what the same check read on net's sockets
// (net.ListenPacket("udp", …), net.Listen("tcp", …), net.DialTimeout)
// on Linux with Go 1.24, before udpio opened sockets itself.
func TestSocketParity(t *testing.T) {
	type row struct {
		name, want string
		got        func(t *testing.T) string
	}
	var rows []row
	for _, addr := range []struct{ listen, want string }{
		{"127.0.0.1:0", "inet 127.0.0.1"},
		{"[::1]:0", "inet6 ::1"},
		{"0.0.0.0:0", "inet6 ::"},
		{"[::]:0", "inet6 ::"}, // what dnsserver makes of ":0"
	} {
		ap := netip.MustParseAddrPort(addr.listen)
		rows = append(rows, row{"udp " + addr.listen + " listens as", addr.want, func(t *testing.T) string {
			c, err := ListenUDP(ap)
			if err != nil {
				t.Skipf("no socket on %v here: %v", ap, err)
			}
			defer c.Close()
			return family(t, c.rc)
		}}, row{"tcp " + addr.listen + " listens as", addr.want, func(t *testing.T) string {
			ln, err := ListenTCP(ap)
			if err != nil {
				t.Skipf("no listener on %v here: %v", ap, err)
			}
			defer ln.Close()
			return family(t, ln.rc)
		}})
	}
	rows = append(rows, []row{
		{"the zero address listens as", "inet6 ::", func(t *testing.T) string {
			c, err := ListenUDP(netip.AddrPort{}) // the Pipeline's socket
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			return family(t, c.rc)
		}},
		{"a udp wildcard hears IPv4", "from ::ffff:127.0.0.1", func(t *testing.T) string {
			srv, hs := listen(t, "[::]:0")
			_, hp := listen(t, "127.0.0.1:0")
			srv.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := hp.WriteTo([]byte("x"), netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), port(srv))); err != nil {
				t.Fatal(err)
			}
			_, from, err := hs.ReadFrom(make([]byte, 8))
			if err != nil {
				return err.Error()
			}
			return "from " + from.Addr().String()
		}},
		{"a tcp wildcard accepts IPv4", "from ::ffff:127.0.0.1", func(t *testing.T) string {
			_, _, _, from := loopbackPair(t, "[::]:0", "127.0.0.1")
			return "from " + from.Addr().String()
		}},
		{"a tcp port in TIME_WAIT binds again", "bound", func(t *testing.T) string {
			ln, client, server, _ := loopbackPair(t, "127.0.0.1:0", "127.0.0.1")
			addr := netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), tcpPort(t, ln))
			server.Close() // the server closes first: its end waits in TIME_WAIT
			client.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := client.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("the client read %v, want EOF", err)
			}
			client.Close()
			ln.Close()
			again, err := ListenTCP(addr)
			if err != nil {
				return err.Error()
			}
			again.Close()
			return "bound"
		}},
		{"Close unblocks a parked Accept", "closed", func(t *testing.T) string {
			ln, err := ListenTCP(netip.MustParseAddrPort("127.0.0.1:0"))
			if err != nil {
				t.Fatal(err)
			}
			err = parked(t, func() error { _, _, err := ln.Accept(); return err }, func() { ln.Close() })
			if errors.Is(err, os.ErrClosed) {
				return "closed"
			}
			return fmt.Sprint(err)
		}},
		{"Close unblocks a parked Read", "closed", func(t *testing.T) string {
			_, _, server, _ := loopbackPair(t, "127.0.0.1:0", "127.0.0.1")
			err := parked(t, func() error { _, err := server.Read(make([]byte, 1)); return err }, func() { server.Close() })
			if errors.Is(err, os.ErrClosed) {
				return "closed"
			}
			return fmt.Sprint(err)
		}},
		{"a refused connect fails at once", "dial tcp A: connect: connection refused", func(t *testing.T) string {
			ln, err := ListenTCP(netip.MustParseAddrPort("127.0.0.1:0"))
			if err != nil {
				t.Fatal(err)
			}
			to := netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), tcpPort(t, ln))
			ln.Close()
			start := time.Now()
			_, err = DialTCP(context.Background(), to, 5*time.Second)
			if took := time.Since(start); took > time.Second || !errors.Is(err, syscall.ECONNREFUSED) {
				t.Fatalf("the refused connect took %v and failed with %v", took, err)
			}
			return strings.ReplaceAll(fmt.Sprint(err), to.String(), "A")
		}},
		{"a deadline ends a read", "deadline exceeded", func(t *testing.T) string {
			_, _, server, _ := loopbackPair(t, "127.0.0.1:0", "127.0.0.1")
			server.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
			_, err := server.Read(make([]byte, 1))
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return "deadline exceeded"
			}
			return fmt.Sprint(err)
		}},
	}...)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if got := row.got(t); got != row.want {
				t.Fatalf("got %q, want %q, as net's sockets read", got, row.want)
			}
		})
	}
}
