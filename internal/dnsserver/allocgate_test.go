package dnsserver

import (
	"encoding/binary"
	"io"
	"net"
	"net/netip"
	"strconv"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
)

// The allocation gates count what a real Server allocates per query.
// testing.AllocsPerRun counts every goroutine, so both ends of the socket
// are kept allocation-free: the handler returns one response built before
// the run, and the client is a raw socket writing packed queries and
// reading replies into fixed buffers. Every gate skips under -race.
//
// A query costs the server nothing once its goroutines have warmed up:
// the read loop decodes the datagram into a Message a worker has handed
// back, and hands the query over in it; the worker fills in the reply
// it keeps, packs it into the bytes it keeps and returns the Message.
// Or, for a query the handler answers without waiting, the read loop
// does all of that itself, the reply included, in memory of its own. A change that makes any of that
// allocate — a fresh Message per datagram, a second decode on the
// worker, a fresh response buffer, a copying truncation, an RRL bucket
// copied on a known prefix, a reply that drops its arrays — moves a
// count off zero.

// gateQuery is the served workload's query: one question and an EDNS OPT
// carrying an ECS option for 198.51.100.0/24.
func gateQuery(name dnswire.Name) *dnswire.Message {
	query := dnswire.NewQuery(0x4242, name, dnswire.TypeA)
	query.EDNS = dnswire.NewEDNS()
	query.EDNS.SetOption(dnswire.Option{
		Code: dnswire.OptionCodeECS,
		Data: []byte{0x00, 0x01, 0x18, 0x00, 198, 51, 100},
	})
	return query
}

// gateAnswer is the gate handlers' one answer record.
var gateAnswer = dnswire.RR{
	Name: "gate.serve.test.", Class: dnswire.ClassINET, TTL: 30,
	Data: &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.1")},
}

// gateReply is a handler that returns one answer, built before the
// server starts, from HandleDNS, and so allocates nothing.
func gateReply() Handler {
	answer := dnswire.NewResponse(gateQuery(gateAnswer.Name))
	answer.Answers = append(answer.Answers, gateAnswer)
	return handlerFunc(func(netip.Addr, *dnswire.Message) *dnswire.Message { return answer })
}

// gateNow answers every query on the read loop, refilling the loop's
// reply in place and echoing ECS into the option bytes it already has,
// which allocates nothing either. A query of other than one question it
// answers FORMERR.
type gateNow struct{}

func (gateNow) HandleDNS(netip.Addr, *dnswire.Message) *dnswire.Message {
	panic("gate: every query is answered through ServeDNS")
}

func (gateNow) ServeDNS(_ netip.Addr, query, resp *dnswire.Message, _ bool) bool {
	resp.SetReply(query)
	if len(query.Questions) != 1 {
		// FORMERR without an OPT, as the resolver and the authority
		// answer it.
		resp.RCode, resp.EDNS = dnswire.RCodeFormErr, nil
		return true
	}
	resp.Answers = append(resp.Answers, gateAnswer)
	if resp.EDNS != nil {
		ecsopt.AttachInPlace(resp, gateSubnet)
	}
	return true
}

// gateSubnet is the ECS echo of gateQuery's subnet.
var gateSubnet = ecsopt.MustNew(netip.MustParseAddr("198.51.100.0"), 24).WithScope(24)

// gateServer starts a server over h; configure, when set, runs before
// Start.
func gateServer(t *testing.T, h Handler, configure func(*Server)) (*Server, netip.AddrPort) {
	t.Helper()
	srv := New(h)
	if configure != nil {
		configure(srv)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

// packWires packs one gate query per name.
func packWires(t *testing.T, names ...dnswire.Name) [][]byte {
	t.Helper()
	wires := make([][]byte, len(names))
	for i, name := range names {
		wire, err := gateQuery(name).Pack()
		if err != nil {
			t.Fatal(err)
		}
		wires[i] = wire
	}
	return wires
}

// udpGate sends wires in turn to addr from one raw socket, requires
// check to accept each reply, and fails when a run of batch queries
// costs more than want objects on average after a warm-up of the
// worker, the buffer pools and the RRL bucket. A batch of more than one
// query measures a cost that recurs only once every few queries, which
// testing.AllocsPerRun's whole-object average would round away. Each
// query that is answered follows dropped copies of it that the server
// answers with silence.
func udpGate(t *testing.T, addr netip.AddrPort, wires [][]byte, batch, dropped int, want float64, check func(reply []byte) bool) {
	t.Helper()
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	// One deadline for the whole test: re-arming it per query is the
	// client's cost, not the server's.
	conn.SetReadDeadline(time.Now().Add(time.Minute))
	buf := make([]byte, 2048)
	next := 0
	exchange := func() {
		for i := 0; i < batch; i++ {
			wire := wires[next%len(wires)]
			next++
			for j := 0; j <= dropped; j++ {
				if _, err := conn.WriteToUDPAddrPort(wire, addr); err != nil {
					t.Fatal(err)
				}
			}
			n, _, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				t.Fatal(err)
			}
			if !check(buf[:n]) {
				t.Fatalf("reply %x is not the one expected", buf[:n])
			}
		}
	}
	for i := 0; i < 64; i++ {
		exchange()
	}
	if allocs := testing.AllocsPerRun(2000, exchange); allocs > want {
		t.Fatalf("%d queries cost the server %v objects, want <= %v", batch, allocs, want)
	}
}

// answered accepts a response to query 0x4242.
func answered(reply []byte) bool {
	id, response, ok := dnswire.PeekHeader(reply)
	return ok && response && id == 0x4242
}

// TestAllocGateServeUDP counts the objects a real Server allocates per
// UDP query: 0 for a repeated query, with RRL off and on, and 1 — the
// decoded question name, which is new — when every query asks for a
// name the worker's Message has not held before, as a resolver under
// miss traffic sees. The immediate row answers on the read loop, in the
// loop's own reply, and costs 0 as well; so does the immediate-mixed
// row, measured a cycle at a time, whose answers alternate with the
// handler's FORMERR, which carries no OPT, and the server's, which
// carries no records: the next answer must find the reply's sections,
// OPT and ECS option bytes still there. The edns-plain row holds the
// same for the query: a plain query decoded between two EDNS ones must
// leave the loop's Message its OPT record, option bytes and Additionals
// array. It is measured on the read loop, whose one Message decodes
// every query: on workers the alternation can pair up with them, each
// keeping one shape, and the row could read 0 at the parent too. The
// declined rows go through a FillHandler that declines every query on
// the read loop: the loop's decode is the only one, so a repeated query
// costs 0 and a fresh name 1; a second decode on the worker makes that
// 2.
func TestAllocGateServeUDP(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// More names than the measured window holds queries, so no name
	// repeats inside it.
	fresh := make([]dnswire.Name, 4096)
	for i := range fresh {
		fresh[i] = dnswire.Name("q" + strconv.Itoa(i) + ".gate.serve.test.")
	}
	one := packWires(t, "gate.serve.test.")
	// Two questions, which gateNow answers FORMERR without an OPT, and
	// the header and first bytes of a question, which the server answers
	// FORMERR for want of a query to decode.
	twoQ := gateQuery("gate.serve.test.")
	twoQ.Questions = append(twoQ.Questions, twoQ.Questions[0])
	formErrs, err := twoQ.Pack()
	if err != nil {
		t.Fatal(err)
	}
	undecodable := one[0][:14]
	// The gate's query without its OPT record.
	plain, err := dnswire.NewQuery(0x4242, "gate.serve.test.", dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		handler Handler
		rrl     float64
		wires   [][]byte
		batch   int
		want    float64
	}{
		{"plain", gateReply(), 0, one, 1, 0},
		// A bucket of a billion tokens never runs dry: every query takes
		// the limiter's pass path on the client's one known prefix.
		{"rrl", gateReply(), 1e9, one, 1, 0},
		{"fresh-name", gateReply(), 0, packWires(t, fresh...), 1, 1},
		{"immediate", gateNow{}, 0, one, 1, 0},
		{"immediate-mixed", gateNow{}, 0, [][]byte{one[0], formErrs, one[0], undecodable}, 4, 0},
		{"edns-plain", gateNow{}, 0, [][]byte{one[0], plain}, 2, 0},
		{"declined", declining{gateReply()}, 0, one, 1, 0},
		{"declined-fresh-name", declining{gateReply()}, 0, packWires(t, fresh...), 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := gateServer(t, tc.handler, func(s *Server) { s.RRL = tc.rrl })
			udpGate(t, addr, tc.wires, tc.batch, 0, tc.want, answered)
			st := srv.Stats()
			if st.Shed != 0 || st.Slipped != 0 || st.Panics != 0 {
				t.Fatalf("the gate's traffic was limited or failed: %s", st)
			}
			wantNow := int64(0)
			if _, now := tc.handler.(gateNow); now {
				wantNow = st.Received - st.Malformed
			}
			if st.Immediate != wantNow {
				t.Fatalf("the gate's traffic took the wrong path, want %d answered on the read loop: %s", wantNow, st)
			}
		})
	}
}

// TestAllocGateServeTCP counts what a query costs on a kept TCP
// connection: nothing, since the connection reads each frame into the
// buffer it keeps, decodes into its own Message and frames the response
// in its own output buffer.
func TestAllocGateServeTCP(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	_, addr := gateServer(t, gateReply(), nil)
	conn, err := net.DialTCP("tcp", nil, net.TCPAddrFromAddrPort(addr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(time.Minute))
	wire := packWires(t, "gate.serve.test.")[0]
	frame := binary.BigEndian.AppendUint16(nil, uint16(len(wire)))
	frame = append(frame, wire...)
	lenBuf := make([]byte, 2)
	buf := make([]byte, 2048)
	exchange := func() {
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, lenBuf); err != nil {
			t.Fatal(err)
		}
		reply := buf[:binary.BigEndian.Uint16(lenBuf)]
		if _, err := io.ReadFull(conn, reply); err != nil {
			t.Fatal(err)
		}
		if !answered(reply) {
			t.Fatalf("reply %x is not the answer to query 0x4242", reply)
		}
	}
	for i := 0; i < 64; i++ {
		exchange()
	}
	if allocs := testing.AllocsPerRun(2000, exchange); allocs > 0 {
		t.Fatalf("a query on a kept TCP connection allocates %v objects, want 0", allocs)
	}
}

// TestAllocGateShed counts what refusing a query costs: nothing, on both
// shed paths. The read loop answers an overflow SERVFAIL from its own
// workspace while every worker is wedged, and an RRL slip from the same
// workspace. Shedding a flood therefore leaves no garbage behind.
func TestAllocGateShed(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	refused := func(rcode dnswire.RCode, tc bool) func([]byte) bool {
		var m dnswire.Message // reused, so the check allocates nothing
		return func(reply []byte) bool {
			return dnswire.UnpackInto(&m, reply) == nil && m.ID == 0x4242 &&
				m.Response && m.RCode == rcode && m.Truncated == tc && len(m.Answers) == 0
		}
	}
	wires := packWires(t, "gate.serve.test.")

	t.Run("overflow-servfail", func(t *testing.T) {
		release := make(chan struct{})
		srv := New(gate(release))
		srv.MaxInflight = 1
		srv.Overflow = OverflowServFail
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			close(release)
			srv.Close()
		})
		// One query wedges the only worker and one fills the one-slot
		// queue; every datagram after them is shed by the read loop.
		conn := udpDial(t, addr.String())
		conn.Write(packQuery(t, 1, "www.zone.test."))
		waitStat(t, srv, "worker wedged", func(st ServerStats) bool { return st.Inflight == 1 })
		conn.Write(packQuery(t, 2, "www.zone.test."))
		waitStat(t, srv, "queue filled", func(st ServerStats) bool { return st.Received == 2 })
		udpGate(t, addr, wires, 1, 0, 0, refused(dnswire.RCodeServFail, false))
		if st := srv.Stats(); st.Shed != st.Received-2 {
			t.Fatalf("the gate's traffic was not all shed: %s", st)
		}
	})

	t.Run("rrl-slip", func(t *testing.T) {
		// A frozen clock and a one-token bucket: once one query has taken
		// the token every query is refused, and refusals alternate drop,
		// slip. Loopback clients all share the bucket of 127.0.0.0/24.
		frozen := time.Unix(1e9, 0)
		srv, addr := gateServer(t, gateReply(), func(s *Server) {
			s.RRL = 1
			s.Now = func() time.Time { return frozen }
		})
		conn := udpDial(t, addr.String())
		conn.Write(packQuery(t, 1, "www.zone.test."))
		if resp, ok := udpRead(t, conn, time.Second); !ok || resp.Truncated {
			t.Fatalf("the bucket's one token did not answer: %v", resp)
		}
		udpGate(t, addr, wires, 1, 1, 0, refused(dnswire.RCodeNoError, true))
		if st := srv.Stats(); st.Slipped != st.RRLDropped || st.Slipped+st.RRLDropped != st.Received-1 {
			t.Fatalf("the gate's traffic did not alternate drop and slip: %s", st)
		}
	})
}
