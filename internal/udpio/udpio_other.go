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
