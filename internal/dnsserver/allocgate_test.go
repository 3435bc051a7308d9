package dnsserver

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
)

// serveUDPAllocs is what one ECS query costs the server end to end —
// read loop, admission, RRL, decode, dispatch, truncating encode and
// send — over a handler that allocates nothing. All seven are the
// decode into the fresh Message the Handler interface hands on: the
// Message, its question slice and name, the additional-section slot the
// OPT record is read into, the EDNS, its option slice and the ECS
// payload. The transport adds nothing, so a change that makes the send
// path allocate (a fresh response buffer, a copying truncation) or the
// RRL decision allocate on a known prefix moves this number.
const serveUDPAllocs = 7

// TestAllocGateServeUDP counts the objects a real Server allocates per
// UDP query. testing.AllocsPerRun counts every goroutine, so both ends of
// the socket are kept allocation-free: the handler returns one response
// built before the run, and the client is a raw socket writing a packed
// query and reading the reply into fixed buffers.
func TestAllocGateServeUDP(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, tc := range []struct {
		name string
		rrl  *RRLConfig
	}{
		{"plain", nil},
		// A bucket of a billion tokens never runs dry: every query takes
		// the limiter's pass path on the client's one known prefix.
		{"rrl", &RRLConfig{Rate: 1e9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The served workload's query: one question and an EDNS OPT
			// carrying an ECS option for 198.51.100.0/24.
			query := dnswire.NewQuery(0x4242, "gate.serve.test.", dnswire.TypeA)
			query.EDNS = dnswire.NewEDNS()
			query.EDNS.SetOption(dnswire.Option{
				Code: dnswire.OptionCodeECS,
				Data: []byte{0x00, 0x01, 0x18, 0x00, 198, 51, 100},
			})
			answer := dnswire.NewResponse(query)
			answer.Answers = append(answer.Answers, dnswire.RR{
				Name: query.Question().Name, Class: dnswire.ClassINET, TTL: 30,
				Data: &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.1")},
			})
			srv := New(handlerFunc(func(netip.Addr, *dnswire.Message) *dnswire.Message { return answer }))
			srv.RRL = tc.rrl
			addr, err := srv.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })

			conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { conn.Close() })
			// One deadline for the whole test: re-arming it per query is
			// the client's cost, not the server's.
			conn.SetReadDeadline(time.Now().Add(time.Minute))
			wire, err := query.Pack()
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 2048)
			exchange := func() {
				if _, err := conn.WriteToUDPAddrPort(wire, addr); err != nil {
					t.Fatal(err)
				}
				n, _, err := conn.ReadFromUDPAddrPort(buf)
				if err != nil {
					t.Fatal(err)
				}
				if id, response, ok := dnswire.PeekHeader(buf[:n]); !ok || !response || id != 0x4242 {
					t.Fatalf("reply %x is not the answer to query 0x4242", buf[:n])
				}
			}
			// Warm the worker, the buffer pools and the RRL bucket.
			for i := 0; i < 64; i++ {
				exchange()
			}
			if allocs := testing.AllocsPerRun(2000, exchange); allocs > serveUDPAllocs {
				t.Fatalf("a UDP query allocates %v objects, want <= %d", allocs, serveUDPAllocs)
			}
			if st := srv.Stats(); st.Shed != 0 || st.Slipped != 0 {
				t.Fatalf("the gate's traffic was limited: %s", st)
			}
		})
	}
}
