// Package udpio opens the product's sockets and reads and writes UDP
// datagrams without the runtime's syscall bookkeeping. It is the tree's
// only home for syscall, and one of two for unsafe, with dnswire's name
// views (TestUnsafeHomes).
//
// On Linux it opens every socket itself, so no binary links package net
// and none needs a C library: ListenUDP, DialUDP, ListenTCP and DialTCP
// make a non-blocking, close-on-exec socket with syscall.Socket, bind or
// connect it, and wrap the descriptor with os.NewFile, whose *os.File
// parks SyscallConn, Read, Write and the deadlines on the same netpoller
// a net socket's do, and whose Close unblocks them. Sockets are
// opened as net opens them for a "udp" or "tcp" network: an IPv4
// address gets an AF_INET socket; any other address, and a listen on an
// unspecified one, an AF_INET6 socket with IPV6_V6ONLY off, so a
// wildcard listener hears IPv4 too (as 4-in-6); a TCP listener sets
// SO_REUSEADDR, and a TCP connection TCP_NODELAY. Addresses are
// addresses: nothing here resolves a name, and an IPv6 zone is a scope
// ID or an interface's name, read as /sys/class/net/<zone>/ifindex.
//
// A Handle is one goroutine's grip on a UDP socket's syscall.RawConn.
// On Linux its ReadFrom, WriteTo, Read and Write issue recvfrom and
// sendto through syscall.RawSyscall6 inside RawConn.Read and
// RawConn.Write callbacks. The socket is non-blocking, so a raw call
// never blocks its thread: EAGAIN still parks the goroutine in the
// netpoller, EINTR is retried, a deadline ends the wait with
// os.ErrDeadlineExceeded and a Close with os.ErrClosed. What the raw
// call skips is entersyscall, which wakes the runtime's sysmon thread on
// the first syscall after the process idled in netpoll, and so costs a
// closed-loop server a context switch per query (DESIGN.md §10).
// Nothing in a call allocates: the callbacks are bound once, when the
// Handle is made.
//
// A Reader and a Writer move datagrams in batches the same way: a
// Reader's Read takes every queued datagram, up to its size, in one
// recvmmsg into buffers it owns, and a Writer sends what its caller
// queued in one sendmmsg, straight from the caller's bytes, and reports
// by index each datagram the kernel refused. A Reader's ReadBacklog is
// for a server that mostly finds its socket idle: it takes one datagram
// with recvfrom, as ReadFrom does, and only when that one was already
// queued the datagrams queued behind it, in one recvmmsg that never
// waits and backs off while it finds nothing. A Reader's buffers are an
// anonymous mapping, not Go heap, which Close unmaps.
//
// Elsewhere, and on linux/386, whose socket calls go through
// socketcall, the sockets are net's and the Handle calls the net.UDPConn
// methods of the same name, a Reader takes one datagram a call
// (ReadBacklog is Read), and a Writer sends its queue one datagram at a
// time.
package udpio

import (
	"errors"
	"io"
	"time"
)

// bufSize is the size of each of a Reader's buffers: the largest
// datagram a UDP length field can describe.
const bufSize = 65535

var errFull = errors.New("udpio: batch full")

// Conn is a connected TCP socket: an *os.File on Linux, a net.Conn
// elsewhere.
type Conn interface {
	io.ReadWriteCloser
	SetDeadline(t time.Time) error
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}
