//go:build !386

package udpio

import (
	"net"
	"net/netip"
	"slices"
	"strconv"
	"syscall"
	"testing"
	"time"
)

// TestScopeIDZone: a nonzero IPv6 scope ID reads as a numeric zone and
// that zone writes back as the same scope ID; zero is no zone. An
// interface's name writes as its index.
func TestScopeIDZone(t *testing.T) {
	for _, scope := range []uint32{0, 1, 7, 4096, 1<<32 - 1} {
		zone := zoneName(scope)
		if (scope == 0) != (zone == "") {
			t.Fatalf("scope %d reads as zone %q", scope, zone)
		}
		if got, err := scopeID(zone); got != scope || err != nil {
			t.Fatalf("zone %q (scope %d) writes as scope %d, %v", zone, scope, got, err)
		}
	}
	lo, err := net.InterfaceByIndex(1)
	if err != nil {
		t.Skipf("no interface 1: %v", err)
	}
	if got, err := scopeID(lo.Name); got != 1 || err != nil {
		t.Fatalf("zone %q writes as scope %d, %v, want 1", lo.Name, got, err)
	}
	if _, err := scopeID("no-such-interface"); err == nil {
		t.Fatal("an unknown interface name became a scope ID")
	}
}

// TestSockaddrRoundTrip encodes addresses the way WriteTo does and
// decodes them the way ReadFrom does: address, zone and port (two
// distinct bytes, so a swap shows) come back unchanged.
func TestSockaddrRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		inet6 bool
		to    string
	}{
		{false, "192.0.2.1:4660"},
		{true, "[2001:db8::1]:4660"},
		{true, "[fe80::1%9]:53"},
		{true, "[::ffff:192.0.2.1]:65280"},
	} {
		var sa syscall.RawSockaddrAny
		to := netip.MustParseAddrPort(tc.to)
		if _, err := putSockaddr(&sa, tc.inet6, to); err != nil {
			t.Fatal(err)
		}
		if got := addrPort(&sa); got != to {
			t.Fatalf("%v came back as %v", to, got)
		}
	}
	// A dual-stack socket sends to an IPv4 address as 4-in-6.
	var sa syscall.RawSockaddrAny
	if _, err := putSockaddr(&sa, true, netip.MustParseAddrPort("192.0.2.1:53")); err != nil {
		t.Fatal(err)
	}
	if got, want := addrPort(&sa), netip.MustParseAddrPort("[::ffff:192.0.2.1]:53"); got != want {
		t.Fatalf("192.0.2.1:53 went out as %v, want %v", got, want)
	}
}

// TestFamily: the family a socket's handles write in is the one
// getsockname reports, for listened and dialed sockets of each kind.
func TestFamily(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func() (*UDPConn, error)
	}{
		{"listen 127.0.0.1", func() (*UDPConn, error) { return ListenUDP(netip.MustParseAddrPort("127.0.0.1:0")) }},
		{"listen wildcard", func() (*UDPConn, error) { return ListenUDP(netip.AddrPort{}) }},
		{"listen 0.0.0.0", func() (*UDPConn, error) { return ListenUDP(netip.MustParseAddrPort("0.0.0.0:0")) }},
		{"listen ::1", func() (*UDPConn, error) { return ListenUDP(netip.MustParseAddrPort("[::1]:0")) }},
		{"dial v4", func() (*UDPConn, error) { return DialUDP(netip.MustParseAddrPort("127.0.0.1:53")) }},
		{"dial 4-in-6", func() (*UDPConn, error) { return DialUDP(netip.MustParseAddrPort("[::ffff:127.0.0.1]:53")) }},
		{"dial v6", func() (*UDPConn, error) { return DialUDP(netip.MustParseAddrPort("[::1]:53")) }},
	} {
		uc, err := tc.open()
		if err != nil {
			t.Logf("%s: %v", tc.name, err)
			continue
		}
		var sa syscall.Sockaddr
		uc.rc.Control(func(fd uintptr) { sa, err = syscall.Getsockname(int(fd)) })
		if err != nil {
			t.Fatal(err)
		}
		_, want := sa.(*syscall.SockaddrInet6)
		if uc.inet6 != want {
			t.Fatalf("%s: opened as AF_INET6=%v, getsockname says %v", tc.name, uc.inet6, want)
		}
		uc.Close()
	}
}

// TestReadBacklog drives ReadBacklog's two regimes: a datagram that
// finds the reader idle comes back alone, and the datagrams queued
// behind one come back with it, in order, each with its sender. A probe
// that finds nothing backs off, and one that finds a datagram ends the
// backoff.
func TestReadBacklog(t *testing.T) {
	srv, _ := listen(t, "127.0.0.1:0")
	peer, hp := listen(t, "127.0.0.1:0")
	srv.SetDeadline(time.Now().Add(30 * time.Second))
	to, sender := srv.LocalAddr(), peer.LocalAddr()
	send := func(t *testing.T, msgs ...string) {
		t.Helper()
		for _, m := range msgs {
			if _, err := hp.WriteTo([]byte(m), to); err != nil {
				t.Fatal(err)
			}
		}
	}
	reader := func(t *testing.T, n, size int) *Reader {
		t.Helper()
		r, err := newReader(srv, n, size)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return r
	}
	// read makes one call and returns what it took: a cut datagram
	// reads "cut".
	read := func(t *testing.T, r *Reader) []string {
		t.Helper()
		k, err := r.ReadBacklog()
		if err != nil {
			t.Fatal(err)
		}
		got := make([]string, k)
		for i := range got {
			b, from, ok := r.Datagram(i)
			switch {
			case from != sender:
				t.Fatalf("datagram %d of %d came from %v, want %v", i, k, from, sender)
			case !ok && b != nil:
				t.Fatalf("a cut datagram came back as %q", b)
			case !ok:
				got[i] = "cut"
			default:
				got[i] = string(b)
			}
		}
		return got
	}
	expect := func(t *testing.T, got []string, want ...string) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("one call read %q, want %q", got, want)
		}
	}

	t.Run("idle", func(t *testing.T) {
		r := reader(t, 4, 64)
		done := make(chan []string, 1)
		go func() {
			k, err := r.ReadBacklog()
			if err != nil {
				t.Error(err)
			}
			b, _, _ := r.Datagram(0)
			done <- []string{strconv.Itoa(k), string(b)}
		}()
		time.Sleep(20 * time.Millisecond) // let it park
		// The second datagram may be queued when the reader wakes, but a
		// read that waited does not look behind its datagram.
		send(t, "first", "second")
		expect(t, <-done, "1", "first")
		if r.probes != 0 {
			t.Fatalf("a read that waited probed %d times", r.probes)
		}
		expect(t, read(t, r), "second")
	})

	t.Run("queued", func(t *testing.T) {
		r := reader(t, 4, 64)
		send(t, "a", "b", "c")
		expect(t, read(t, r), "a", "b", "c")
		send(t, "1", "2", "3", "4", "5", "6")
		expect(t, read(t, r), "1", "2", "3", "4")
		expect(t, read(t, r), "5", "6")
	})

	t.Run("cut", func(t *testing.T) {
		// The first datagram is taken by recvfrom, the rest by the probe.
		r := reader(t, 4, 16)
		send(t, "seventeen bytes!!", "sixteen bytes...", "seventeen bytes!!")
		expect(t, read(t, r), "cut", "sixteen bytes...", "cut")
	})

	t.Run("backoff", func(t *testing.T) {
		r := reader(t, 8, 64)
		const calls = 1000
		for i := 0; i < calls; i++ {
			send(t, "one")
			expect(t, read(t, r), "one")
		}
		t.Logf("%d reads that each found one datagram queued probed %d times", calls, r.probes)
		if r.probes > 40 {
			t.Fatalf("%d reads that each found one datagram queued probed %d times, want <= 40", calls, r.probes)
		}
		// Two datagrams before each call: the queue grows by one a call
		// until the next probe, which finds datagrams, and from then on
		// every call probes.
		found := -1
		for i := 0; i < 100; i++ {
			send(t, "x", "y")
			before := r.probes
			got := read(t, r)
			probed := r.probes > before
			switch {
			case found < 0 && probed:
				if len(got) < 2 {
					t.Fatalf("call %d probed behind a queue and found nothing", i)
				}
				found = i
			case found >= 0 && (!probed || len(got) < 2):
				t.Fatalf("call %d, after a probe found datagrams, read %d datagrams and probed=%v", i, len(got), probed)
			}
		}
		if found < 0 || found > maxSkip {
			t.Fatalf("the first probe behind a queue ran at call %d, want one within %d", found, maxSkip+1)
		}
	})
}
