//go:build !386

package udpio

import (
	"net"
	"net/netip"
	"syscall"
	"testing"
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

// TestFamily: the family New reads off the local address is the one
// getsockname reports, for listened and dialed sockets of each kind.
func TestFamily(t *testing.T) {
	v4 := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 53}
	v6 := &net.UDPAddr{IP: net.IPv6loopback, Port: 53}
	for _, tc := range []struct {
		name string
		open func() (*net.UDPConn, error)
	}{
		{"listen udp4", func() (*net.UDPConn, error) { return net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}) }},
		{"listen udp nil", func() (*net.UDPConn, error) { return net.ListenUDP("udp", nil) }},
		{"listen udp 0.0.0.0", func() (*net.UDPConn, error) { return net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4zero}) }},
		{"listen udp6", func() (*net.UDPConn, error) { return net.ListenUDP("udp6", &net.UDPAddr{IP: net.IPv6loopback}) }},
		{"dial udp v4", func() (*net.UDPConn, error) { return net.DialUDP("udp", nil, v4) }},
		{"dial udp v6", func() (*net.UDPConn, error) { return net.DialUDP("udp", nil, v6) }},
		{"dial udp4", func() (*net.UDPConn, error) { return net.DialUDP("udp4", nil, v4) }},
	} {
		uc, err := tc.open()
		if err != nil {
			t.Logf("%s: %v", tc.name, err)
			continue
		}
		var sa syscall.Sockaddr
		rc, _ := uc.SyscallConn()
		rc.Control(func(fd uintptr) { sa, err = syscall.Getsockname(int(fd)) })
		if err != nil {
			t.Fatal(err)
		}
		_, want := sa.(*syscall.SockaddrInet6)
		h, err := New(uc)
		if err != nil {
			t.Fatal(err)
		}
		if h.inet6 != want {
			t.Fatalf("%s: New read AF_INET6=%v, getsockname says %v", tc.name, h.inet6, want)
		}
		uc.Close()
	}
}
