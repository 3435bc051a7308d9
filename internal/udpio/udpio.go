// Package udpio reads and writes UDP datagrams without the runtime's
// syscall bookkeeping. It is the tree's only home for syscall, and one
// of two for unsafe, with dnswire's name views (TestUnsafeHomes).
//
// A Handle is one goroutine's grip on a socket's syscall.RawConn. On
// Linux its ReadFrom, WriteTo, Read and Write issue recvfrom and sendto
// through syscall.RawSyscall6 inside RawConn.Read and RawConn.Write
// callbacks. A net socket is non-blocking, so a raw call never blocks
// its thread: EAGAIN still parks the goroutine in the netpoller, EINTR
// is retried, and deadlines and Close behave as they do for the
// net.UDPConn methods. What the raw call skips is entersyscall, which
// wakes the runtime's sysmon thread on the first syscall after the
// process idled in netpoll, and so costs a closed-loop server a context
// switch per query (DESIGN.md §10). Nothing in a call allocates: the
// callbacks are bound once, when the Handle is made.
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
// socketcall, the Handle calls are the net.UDPConn methods of the same
// name, a Reader takes one datagram a call (ReadBacklog is Read), and a
// Writer sends its queue one datagram at a time.
package udpio

import "errors"

// bufSize is the size of each of a Reader's buffers: the largest
// datagram a UDP length field can describe.
const bufSize = 65535

var errFull = errors.New("udpio: batch full")
