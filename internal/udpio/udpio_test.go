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
func listen(t *testing.T, addr string) (*UDPConn, *Handle) {
	t.Helper()
	for {
		uc, err := ListenUDP(netip.MustParseAddrPort(addr))
		if err != nil {
			t.Skipf("no socket on %s here: %v", addr, err)
		}
		if p := uc.LocalAddr().Port(); p>>8 == p&0xff {
			uc.Close()
			continue
		}
		t.Cleanup(func() { uc.Close() })
		return uc, New(uc)
	}
}

func port(uc *UDPConn) uint16 {
	return uc.LocalAddr().Port()
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
			srv, hs := listen(t, tc.srvAddr)
			peer, hp := listen(t, netip.AddrPortFrom(netip.MustParseAddr(tc.peer), 0).String())
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
	_, h := listen(t, "127.0.0.1:0")
	if _, err := h.WriteTo([]byte("x"), netip.MustParseAddrPort("[::1]:53")); err == nil {
		t.Fatal("an IPv4 socket sent to an IPv6 address")
	}
}

// TestConnectedReadWrite drives a connected socket's Read and Write
// against an unconnected server.
func TestConnectedReadWrite(t *testing.T) {
	srv, hs := listen(t, "127.0.0.1:0")
	uc, err := DialUDP(srv.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer uc.Close()
	hc := New(uc)
	uc.SetDeadline(time.Now().Add(5 * time.Second))
	srv.SetDeadline(time.Now().Add(5 * time.Second))
	if n, err := hc.Write([]byte("ping")); n != 4 || err != nil {
		t.Fatalf("Write: %d, %v", n, err)
	}
	buf := make([]byte, 64)
	n, from, err := hs.ReadFrom(buf)
	if err != nil || string(buf[:n]) != "ping" || from != uc.LocalAddr() {
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
// call or passes while it waits, and the error is a timeout as net.Error
// names one.
func TestDeadline(t *testing.T) {
	uc, h := listen(t, "127.0.0.1:0")
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
// in the netpoller with os.ErrClosed (net.ErrClosed on the fallback).
func TestCloseUnblocksReadFrom(t *testing.T) {
	uc, h := listen(t, "127.0.0.1:0")
	done := make(chan error, 1)
	go func() {
		_, _, err := h.ReadFrom(make([]byte, 64))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it park
	uc.Close()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrClosed) && !errors.Is(err, net.ErrClosed) {
			t.Fatalf("ReadFrom after Close returned %v, want os.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left ReadFrom parked")
	}
}

// readAll reads with r until it has taken n datagrams: a batch may hold
// them all or, off Linux, one.
func readAll(t *testing.T, r *Reader, n int) (got []string, from []netip.AddrPort) {
	t.Helper()
	for len(got) < n {
		k, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			b, ap, ok := r.Datagram(i)
			if !ok {
				t.Fatalf("datagram %d of a batch arrived cut", i)
			}
			got, from = append(got, string(b)), append(from, ap)
		}
	}
	if len(got) != n {
		t.Fatalf("read %d datagrams, want %d", len(got), n)
	}
	return got, from
}

// TestBatchReadWrite sends datagrams of three lengths from an IPv4 and
// an IPv6 peer to a dual-stack socket in one batch each, and reads them
// in batches: each comes back with its length and its sender, the IPv4
// one 4-in-6, as ReadFrom reads it.
func TestBatchReadWrite(t *testing.T) {
	srv, _ := listen(t, "[::]:0")
	r, err := NewReader(srv, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	srv.SetDeadline(time.Now().Add(5 * time.Second))
	for _, tc := range []struct {
		net, peer, seen string
	}{
		{"udp4", "127.0.0.1", "::ffff:127.0.0.1"},
		{"udp6", "::1", "::1"},
	} {
		peer, _ := listen(t, netip.AddrPortFrom(netip.MustParseAddr(tc.peer), 0).String())
		w := NewWriter(peer, 4)
		to := netip.AddrPortFrom(netip.MustParseAddr(tc.peer), port(srv))
		want := []string{"a", "bb", "ccc"}
		for _, m := range want {
			if err := w.Add([]byte(m), to); err != nil {
				t.Fatal(err)
			}
		}
		w.Flush(func(i int, err error) { t.Errorf("datagram %d refused: %v", i, err) })
		got, from := readAll(t, r, len(want))
		sender := netip.AddrPortFrom(netip.MustParseAddr(tc.seen), port(peer))
		for i := range want {
			if got[i] != want[i] || from[i] != sender {
				t.Fatalf("%s peer: datagram %d read %q from %v, want %q from %v", tc.net, i, got[i], from[i], want[i], sender)
			}
		}
	}
}

// TestBatchReadLargest: a 65 000-byte datagram arrives whole in a
// batch, and one longer than a buffer is never returned cut.
func TestBatchReadLargest(t *testing.T) {
	srv, _ := listen(t, "127.0.0.1:0")
	_, hp := listen(t, "127.0.0.1:0")
	srv.SetDeadline(time.Now().Add(5 * time.Second))
	to := srv.LocalAddr()
	r, err := NewReader(srv, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	big := bytes.Repeat([]byte("0123456789abcdef"), 65000/16)
	big = append(big, big[:65000-len(big)]...)
	if _, err := hp.WriteTo(big, to); err != nil {
		t.Fatal(err)
	}
	if got, _ := readAll(t, r, 1); got[0] != string(big) {
		t.Fatalf("read %d bytes, want the %d sent", len(got[0]), len(big))
	}

	small, err := newReader(srv, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	for _, m := range []string{"seventeen bytes!!", "sixteen bytes..."} {
		if _, err := hp.WriteTo([]byte(m), to); err != nil {
			t.Fatal(err)
		}
	}
	var seen []string
	for len(seen) < 2 {
		k, err := small.Read()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			b, _, ok := small.Datagram(i)
			if ok {
				seen = append(seen, string(b))
			} else if b != nil {
				t.Fatalf("a cut datagram came back as %q", b)
			} else {
				seen = append(seen, "cut")
			}
		}
	}
	if seen[0] != "cut" || seen[1] != "sixteen bytes..." {
		t.Fatalf("a 16-byte buffer read %q, want the 17-byte datagram cut and the 16-byte one whole", seen)
	}
}

// TestBatchWriteRefused: the kernel refuses the third datagram of a
// batch, to port 0. Flush reports that index alone and still sends the
// datagrams after it, in order.
func TestBatchWriteRefused(t *testing.T) {
	srv, hs := listen(t, "127.0.0.1:0")
	peer, _ := listen(t, "127.0.0.1:0")
	srv.SetDeadline(time.Now().Add(5 * time.Second))
	w := NewWriter(peer, 4)
	to := srv.LocalAddr()
	for i, m := range []string{"0", "1", "2", "3"} {
		dest := to
		if i == 2 {
			dest = netip.AddrPortFrom(to.Addr(), 0)
		}
		if err := w.Add([]byte(m), dest); err != nil {
			t.Fatal(err)
		}
	}
	var refused []int
	w.Flush(func(i int, err error) {
		if err == nil {
			t.Errorf("datagram %d refused without an error", i)
		}
		refused = append(refused, i)
	})
	if len(refused) != 1 || refused[0] != 2 {
		t.Fatalf("Flush refused %v, want [2]", refused)
	}
	buf := make([]byte, 64)
	for _, want := range []string{"0", "1", "3"} {
		n, _, err := hs.ReadFrom(buf)
		if err != nil || string(buf[:n]) != want {
			t.Fatalf("read %q (%v), want %q", buf[:n], err, want)
		}
	}
}

// TestAllocGateUDPIO holds each call at 0 objects. A row runs its call
// with the one that feeds or drains it, so every call reads 0 twice and
// no socket buffer fills.
func TestAllocGateUDPIO(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	a, ha := listen(t, "127.0.0.1:0")
	b, hb := listen(t, "127.0.0.1:0")
	c, err := DialUDP(b.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hc := New(c)
	for _, uc := range []*UDPConn{a, b, c} {
		uc.SetDeadline(time.Now().Add(30 * time.Second))
	}
	toA, toC := a.LocalAddr(), c.LocalAddr()
	msg, buf := []byte("datagram"), make([]byte, 64)
	must := func(_ int, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	ra, err := NewReader(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	wb := NewWriter(b, 4)
	refused := func(i int, err error) { t.Fatalf("datagram %d refused: %v", i, err) }
	readBatch := func(n int, read func() (int, error)) {
		for n > 0 {
			k, err := read()
			must(k, err)
			n -= k
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
		{"Writer", func() {
			must(0, wb.Add(msg, toA))
			must(0, wb.Add(msg, toA))
			wb.Flush(refused)
			must(ha.Read(buf))
			must(ha.Read(buf))
		}},
		{"Reader", func() {
			must(hb.WriteTo(msg, toA))
			must(hb.WriteTo(msg, toA))
			readBatch(2, ra.Read)
		}},
		{"ReadBacklog", func() {
			must(hb.WriteTo(msg, toA))
			must(hb.WriteTo(msg, toA))
			readBatch(2, ra.ReadBacklog)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(200, tc.call); got != 0 {
				t.Fatalf("%s costs %v objects per call, want 0", tc.name, got)
			}
		})
	}
}
