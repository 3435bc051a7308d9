package dnsserver

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
)

// benchAnswer is the one record both benchmark handlers answer with.
var benchAnswer = dnswire.RR{
	Name: "bench.serve.test.", Class: dnswire.ClassINET, TTL: 30,
	Data: &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.1")},
}

// workerReply answers every query with benchAnswer from HandleDNS, in a
// response of its own: the shape of a handler that is not a FillHandler.
type workerReply struct{}

func (workerReply) HandleDNS(_ netip.Addr, q *dnswire.Message) *dnswire.Message {
	resp := dnswire.NewResponse(q)
	resp.Answers = append(resp.Answers, benchAnswer)
	return resp
}

// loopReply answers the same way, filling the reply in place through
// ServeDNS, on the read loop.
type loopReply struct{ workerReply }

func (loopReply) ServeDNS(_ netip.Addr, q, resp *dnswire.Message, _ bool) bool {
	resp.Header = dnswire.Header{ID: q.ID, Response: true, OpCode: q.OpCode, RecursionDesired: q.RecursionDesired}
	resp.Questions = append(resp.Questions[:0], q.Questions...)
	resp.Answers = append(resp.Answers[:0], benchAnswer)
	resp.Authorities, resp.Additionals, resp.EDNS = resp.Authorities[:0], resp.Additionals[:0], nil
	return true
}

// BenchmarkServeUDP is the serving curve: closed-loop loopback clients,
// each with a socket of its own and one query in flight, against a
// server answering one fixed record, through HandleDNS on a worker
// ("worker") and through ServeDNS on the read loop ("immediate"). Run it
// at -cpu 1,2.
func BenchmarkServeUDP(b *testing.B) {
	for _, h := range []struct {
		name    string
		handler Handler
	}{{"worker", workerReply{}}, {"immediate", loopReply{}}} {
		for _, clients := range []int{1, 16, 64} {
			b.Run(fmt.Sprintf("%s/clients=%d", h.name, clients), func(b *testing.B) {
				benchServeUDP(b, h.handler, clients)
			})
		}
	}
}

func benchServeUDP(b *testing.B, h Handler, clients int) {
	srv := New(h)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	wire, err := dnswire.NewQuery(0x4242, benchAnswer.Name, dnswire.TypeA).Pack()
	if err != nil {
		b.Fatal(err)
	}
	conns := make([]*net.UDPConn, clients)
	for i := range conns {
		if conns[i], err = net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(addr)); err != nil {
			b.Fatal(err)
		}
		defer conns[i].Close()
		conns[i].SetReadDeadline(time.Now().Add(time.Minute))
	}
	var next atomic.Int64
	errs := make(chan error, clients) // one per client at most
	var wg sync.WaitGroup
	b.ResetTimer()
	for _, conn := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 512)
			for next.Add(1) <= int64(b.N) {
				if _, err := conn.Write(wire); err != nil {
					errs <- err
					return
				}
				if _, err := conn.Read(buf); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	close(errs)
	if err := <-errs; err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "q/s")
}
