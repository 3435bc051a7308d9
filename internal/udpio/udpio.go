// Package udpio reads and writes UDP datagrams without the runtime's
// syscall bookkeeping. It is the tree's only home for syscall and unsafe.
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
// Elsewhere the four calls are the net.UDPConn methods of the same name.
package udpio
