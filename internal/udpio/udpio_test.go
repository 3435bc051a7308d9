package udpio

import (
	"bytes"
	"errors"
	"net"
	"net/netip"
	"os"
	"testing"
	"time"
)

// listen opens a UDP socket on addr and a handle on it. Its port's two
// bytes differ, so a port read or written in the wrong byte order shows.
// It skips when the host has no such socket (an IPv6-less box).
func listen(t *testing.T, network, addr string) (*net.UDPConn, *Handle) {
	t.Helper()
	for {
		uc, err := net.ListenUDP(network, net.UDPAddrFromAddrPort(netip.MustParseAddrPort(addr)))
		if err != nil {
			t.Skipf("no %s socket on %s here: %v", network, addr, err)
		}
		if p := uc.LocalAddr().(*net.UDPAddr).Port; p>>8 == p&0xff {
			uc.Close()
			continue
		}
		t.Cleanup(func() { uc.Close() })
		return uc, handle(t, uc)
	}
}

func handle(t *testing.T, uc *net.UDPConn) *Handle {
	t.Helper()
	h, err := New(uc)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func port(uc *net.UDPConn) uint16 {
	return uc.LocalAddr().(*net.UDPAddr).AddrPort().Port()
}

// TestReadFromWriteTo sends a datagram each way between two sockets and
// checks the bytes and the sender each side reads. A dual-stack socket
// reads an IPv4 peer as 4-in-6, as net.UDPConn does, and answers it at
// either form of its address.
func TestReadFromWriteTo(t *testing.T) {
	for _, tc := range []struct {
		name            string
		srvNet, srvAddr string
		peerNet, peer   string
		seen, replyTo   string // the peer as the server reads it, and as it answers
	}{
		{"v4", "udp4", "127.0.0.1:0", "udp4", "127.0.0.1", "127.0.0.1", "127.0.0.1"},
		{"v6", "udp6", "[::1]:0", "udp6", "::1", "::1", "::1"},
		{"dual-stack v4 peer", "udp", "[::]:0", "udp4", "127.0.0.1", "::ffff:127.0.0.1", "::ffff:127.0.0.1"},
		{"dual-stack v4 peer, answered unmapped", "udp", "[::]:0", "udp4", "127.0.0.1", "::ffff:127.0.0.1", "127.0.0.1"},
		{"dual-stack v6 peer", "udp", "[::]:0", "udp6", "::1", "::1", "::1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, hs := listen(t, tc.srvNet, tc.srvAddr)
			peer, hp := listen(t, tc.peerNet, netip.AddrPortFrom(netip.MustParseAddr(tc.peer), 0).String())
			srv.SetDeadline(time.Now().Add(5 * time.Second))
			peer.SetDeadline(time.Now().Add(5 * time.Second))
			to := netip.AddrPortFrom(netip.MustParseAddr(tc.peer), port(srv))
			if n, err := hp.WriteTo([]byte("query"), to); n != 5 || err != nil {
				t.Fatalf("WriteTo %v: %d, %v", to, n, err)
			}
			buf := make([]byte, 64)
			n, from, err := hs.ReadFrom(buf)
			if err != nil {
				t.Fatal(err)
			}
			want := netip.AddrPortFrom(netip.MustParseAddr(tc.seen), port(peer))
			if string(buf[:n]) != "query" || from != want {
				t.Fatalf("read %q from %v, want %q from %v", buf[:n], from, "query", want)
			}
			reply := netip.AddrPortFrom(netip.MustParseAddr(tc.replyTo), from.Port())
			if _, err := hs.WriteTo([]byte("answer"), reply); err != nil {
				t.Fatalf("WriteTo %v: %v", reply, err)
			}
			n, from, err = hp.ReadFrom(buf)
			if err != nil {
				t.Fatal(err)
			}
			if want := netip.AddrPortFrom(netip.MustParseAddr(tc.peer), port(srv)); string(buf[:n]) != "answer" || from != want {
				t.Fatalf("read %q from %v, want %q from %v", buf[:n], from, "answer", want)
			}
		})
	}
}

// TestWriteToWrongFamily: an IPv4 socket refuses an IPv6 destination
// before any system call, as net.UDPConn does.
func TestWriteToWrongFamily(t *testing.T) {
	_, h := listen(t, "udp4", "127.0.0.1:0")
	if _, err := h.WriteTo([]byte("x"), netip.MustParseAddrPort("[::1]:53")); err == nil {
		t.Fatal("an IPv4 socket sent to an IPv6 address")
	}
}

// TestConnectedReadWrite drives a connected socket's Read and Write
// against an unconnected server.
func TestConnectedReadWrite(t *testing.T) {
	srv, hs := listen(t, "udp4", "127.0.0.1:0")
	uc, err := net.DialUDP("udp4", nil, srv.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer uc.Close()
	hc := handle(t, uc)
	uc.SetDeadline(time.Now().Add(5 * time.Second))
	srv.SetDeadline(time.Now().Add(5 * time.Second))
	if n, err := hc.Write([]byte("ping")); n != 4 || err != nil {
		t.Fatalf("Write: %d, %v", n, err)
	}
	buf := make([]byte, 64)
	n, from, err := hs.ReadFrom(buf)
	if err != nil || string(buf[:n]) != "ping" || from != uc.LocalAddr().(*net.UDPAddr).AddrPort() {
		t.Fatalf("server read %q from %v (%v), want ping from %v", buf[:n], from, err, uc.LocalAddr())
	}
	if _, err := hs.WriteTo([]byte("pong"), from); err != nil {
		t.Fatal(err)
	}
	if n, err := hc.Read(buf); err != nil || !bytes.Equal(buf[:n], []byte("pong")) {
		t.Fatalf("Read: %q, %v", buf[:n], err)
	}
}

// TestDeadline: a read past its deadline fails with
// os.ErrDeadlineExceeded, whether the deadline had passed before the
// call or passes while it waits, and the error is a net.Error timeout.
func TestDeadline(t *testing.T) {
	uc, h := listen(t, "udp4", "127.0.0.1:0")
	buf := make([]byte, 64)
	for _, d := range []time.Duration{-time.Second, 20 * time.Millisecond} {
		uc.SetReadDeadline(time.Now().Add(d))
		_, _, err := h.ReadFrom(buf)
		var ne net.Error
		if !errors.Is(err, os.ErrDeadlineExceeded) || !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("deadline %v: ReadFrom returned %v, want a timeout matching os.ErrDeadlineExceeded", d, err)
		}
	}
}

// TestCloseUnblocksReadFrom: closing the socket ends a ReadFrom parked
// in the netpoller with net.ErrClosed.
func TestCloseUnblocksReadFrom(t *testing.T) {
	uc, h := listen(t, "udp4", "127.0.0.1:0")
	done := make(chan error, 1)
	go func() {
		_, _, err := h.ReadFrom(make([]byte, 64))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it park
	uc.Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("ReadFrom after Close returned %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left ReadFrom parked")
	}
}

// TestAllocGateUDPIO holds each call at 0 objects. A row runs its call
// with the one that feeds or drains it, so every call reads 0 twice and
// no socket buffer fills.
func TestAllocGateUDPIO(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	a, ha := listen(t, "udp4", "127.0.0.1:0")
	b, hb := listen(t, "udp4", "127.0.0.1:0")
	c, err := net.DialUDP("udp4", nil, b.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hc := handle(t, c)
	for _, uc := range []*net.UDPConn{a, b, c} {
		uc.SetDeadline(time.Now().Add(30 * time.Second))
	}
	toA := a.LocalAddr().(*net.UDPAddr).AddrPort()
	toC := c.LocalAddr().(*net.UDPAddr).AddrPort()
	msg, buf := []byte("datagram"), make([]byte, 64)
	must := func(_ int, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"WriteTo", func() { must(hb.WriteTo(msg, toA)); must(ha.Read(buf)) }},
		{"ReadFrom", func() {
			must(hb.WriteTo(msg, toA))
			n, _, err := ha.ReadFrom(buf)
			must(n, err)
		}},
		{"Write", func() { must(hc.Write(msg)); must(hb.Read(buf)) }},
		{"Read", func() { must(hb.WriteTo(msg, toC)); must(hc.Read(buf)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(200, tc.call); got != 0 {
				t.Fatalf("%s costs %v objects per call, want 0", tc.name, got)
			}
		})
	}
}
