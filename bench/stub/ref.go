package stub

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"time"
)

// The sandbox's speed drifts: for minutes at a time the whole machine
// runs up to a third faster or slower, every program at once, so a raw
// rate measured now and one measured ten minutes later differ by more
// than any bound. The benchmark therefore measures the machine next to
// the system: between every two slices of system traffic it times a
// reference, a bare UDP echo over the same loopback, between the same
// harness and a responder that never changes. A figure is then reported
// as it would read on a machine on which the reference makes RefNominal
// round trips a second.

// RefNominal is the reference's rate on the nominal machine, in round
// trips per second. It is about what this sandbox reaches when quiet.
const RefNominal = 70000.0

// RefSlice is how long one reference measurement lasts, and SysSlice how
// long one slice of system traffic between two of them.
const (
	RefSlice = 100 * time.Millisecond
	SysSlice = 100 * time.Millisecond
)

// refSize is the reference datagram's size: that of a typical query.
const refSize = 60

// ServeRef is the reference responder: it binds addr and returns every
// datagram to its sender unchanged, until the socket fails.
func ServeRef(addr string) error {
	a, err := net.ResolveUDPAddr("udp4", addr)
	if err != nil {
		return err
	}
	conn, err := net.ListenUDP("udp4", a)
	if err != nil {
		return err
	}
	defer conn.Close()
	buf := make([]byte, 512)
	for {
		n, from, err := conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return err
		}
		if _, err := conn.WriteToUDPAddrPort(buf[:n], from); err != nil {
			return err
		}
	}
}

// RefClient is the reference's client side: one connected socket, one
// datagram outstanding.
type RefClient struct {
	conn *net.UDPConn
	sent []byte
	recv []byte
	seq  uint64
}

// DialRef connects to a reference responder.
func DialRef(addr string) (*RefClient, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	return &RefClient{conn: conn.(*net.UDPConn), sent: make([]byte, refSize), recv: make([]byte, 512)}, nil
}

// Close releases the socket.
func (c *RefClient) Close() { c.conn.Close() }

// Rate makes round trips for d, at least one, and returns how many it
// made per second.
// Every echo is checked, so a lost or foreign datagram is an error and
// not a fast round trip.
func (c *RefClient) Rate(d time.Duration) (float64, error) {
	start := Now()
	if err := c.conn.SetReadDeadline(start.Add(d + Timeout)); err != nil {
		return 0, err
	}
	n, end := 0, start
	for n == 0 || end.Sub(start) < d {
		c.seq++
		binary.BigEndian.PutUint64(c.sent, c.seq)
		if _, err := c.conn.Write(c.sent); err != nil {
			return 0, err
		}
		m, err := c.conn.Read(c.recv)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(c.recv[:m], c.sent) {
			return 0, fmt.Errorf("reference: echo differs from what was sent")
		}
		n++
		end = Now()
	}
	return float64(n) / end.Sub(start).Seconds(), nil
}
