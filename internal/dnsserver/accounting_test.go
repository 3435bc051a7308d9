package dnsserver

import (
	"encoding/binary"
	"net"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
)

// outcomeHandler answers on a worker or a TCP connection with one
// record, except that it returns nothing for names under "nil." and
// panics on names under "boom.".
func outcomeHandler() handlerFunc {
	inner := answering()
	return func(from netip.Addr, q *dnswire.Message) *dnswire.Message {
		switch name := string(q.Question().Name); {
		case strings.HasPrefix(name, "nil."):
			return nil
		case strings.HasPrefix(name, "boom."):
			panic("worker handler bug")
		}
		return inner(from, q)
	}
}

// counted is how far the partition's counters, Immediate and RRLDropped
// moved from before to after. The gauges are left zero.
func counted(before, after ServerStats) ServerStats {
	return ServerStats{
		Received:   after.Received - before.Received,
		Answered:   after.Answered - before.Answered,
		Immediate:  after.Immediate - before.Immediate,
		Shed:       after.Shed - before.Shed,
		RRLDropped: after.RRLDropped - before.RRLDropped,
		Slipped:    after.Slipped - before.Slipped,
		Malformed:  after.Malformed - before.Malformed,
		Panics:     after.Panics - before.Panics,
	}
}

// settle waits until the counters have moved by exactly want since
// before, with no more queries in flight than then, and requires them
// to stay there a moment: a path that counts no term never gets there,
// and one that counts a second term passes it.
func settle(t *testing.T, srv *Server, before, want ServerStats) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := srv.Stats()
		if counted(before, st) == want && st.Inflight == before.Inflight {
			time.Sleep(10 * time.Millisecond)
			if counted(before, srv.Stats()) == want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("counted %s\nwant    %s", counted(before, srv.Stats()), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEachOutcomeCountedOnce drives a started server through every way a
// query it reads can end, and requires each to move the counters by
// exactly its row: one term of the partition
//
//	Received = Answered + Shed + Slipped + Malformed + Panics
//
// for each query received, never none and never two. The rows cover
// every exit of serveDatagram, admit, udpWorker, process, handleNow and
// handle, and the zero-length TCP frame.
func TestEachOutcomeCountedOnce(t *testing.T) {
	query := func(id uint16, name dnswire.Name) []byte { return packQuery(t, id, name) }
	response := dnswire.NewQuery(11, "www.zone.test.", dnswire.TypeA)
	response.Response = true
	responseWire, err := response.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// A header that announces a question and carries none.
	undecodable := []byte{0xAB, 0xCD, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}
	for _, tc := range []struct {
		name      string
		immediate bool // serve splitHandler rather than outcomeHandler
		wedge     bool // one worker, held by a query, and a full queue
		overflow  OverflowPolicy
		rrl       int  // RRL 1/s on a frozen clock: its one token and rrl-1 refusals are spent first
		tcp       bool // send wire as a TCP frame, the connection's last
		wire      []byte
		reply     *dnswire.Header // the reply's ID, rcode and TC bit; nil: none
		want      ServerStats
	}{
		{name: "rrl-drop", rrl: 1, wire: query(2, "www.zone.test."),
			want: ServerStats{Received: 1, Shed: 1, RRLDropped: 1}},
		{name: "rrl-slip", rrl: 2, wire: query(2, "www.zone.test."),
			reply: &dnswire.Header{ID: 2, Truncated: true},
			want:  ServerStats{Received: 1, Slipped: 1}},
		{name: "overflow-drop", wedge: true, wire: query(3, "www.zone.test."),
			want: ServerStats{Received: 1, Shed: 1}},
		{name: "overflow-servfail", wedge: true, overflow: OverflowServFail, wire: query(3, "www.zone.test."),
			reply: &dnswire.Header{ID: 3, RCode: dnswire.RCodeServFail},
			want:  ServerStats{Received: 1, Shed: 1}},
		{name: "undecodable-worker", wire: undecodable,
			reply: &dnswire.Header{ID: 0xABCD, RCode: dnswire.RCodeFormErr},
			want:  ServerStats{Received: 1, Malformed: 1}},
		{name: "undecodable-loop", immediate: true, wire: undecodable,
			reply: &dnswire.Header{ID: 0xABCD, RCode: dnswire.RCodeFormErr},
			want:  ServerStats{Received: 1, Malformed: 1}},
		{name: "response-loop", immediate: true, wire: responseWire,
			want: ServerStats{Received: 1, Malformed: 1}},
		{name: "response-worker", wire: responseWire,
			want: ServerStats{Received: 1, Malformed: 1}},
		{name: "response-tcp", tcp: true, wire: responseWire,
			want: ServerStats{Received: 1, Malformed: 1}},
		{name: "immediate-answer", immediate: true, wire: query(4, "now.zone.test."),
			reply: &dnswire.Header{ID: 4},
			want:  ServerStats{Received: 1, Answered: 1, Immediate: 1}},
		{name: "immediate-decline", immediate: true, wire: query(5, "miss.zone.test."),
			reply: &dnswire.Header{ID: 5},
			want:  ServerStats{Received: 1, Answered: 1}},
		{name: "immediate-panic", immediate: true, wire: query(6, "boom.zone.test."),
			reply: &dnswire.Header{ID: 6, RCode: dnswire.RCodeServFail},
			want:  ServerStats{Received: 1, Panics: 1}},
		{name: "worker-answer", wire: query(7, "www.zone.test."),
			reply: &dnswire.Header{ID: 7},
			want:  ServerStats{Received: 1, Answered: 1}},
		{name: "worker-nil", wire: query(8, "nil.zone.test."),
			want: ServerStats{Received: 1, Answered: 1}},
		{name: "worker-panic", wire: query(9, "boom.zone.test."),
			reply: &dnswire.Header{ID: 9, RCode: dnswire.RCodeServFail},
			want:  ServerStats{Received: 1, Panics: 1}},
		{name: "tcp-zero-length", tcp: true,
			want: ServerStats{Received: 1, Malformed: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var h Handler = outcomeHandler()
			release := make(chan struct{})
			switch {
			case tc.immediate:
				h = splitHandler{}
			case tc.wedge:
				h = gate(release)
			}
			srv := New(h)
			srv.Overflow = tc.overflow
			if tc.wedge {
				srv.MaxInflight = 1
			}
			if tc.rrl > 0 {
				frozen := time.Unix(1e9, 0)
				srv.RRL, srv.Now = 1, func() time.Time { return frozen }
			}
			bound, err := srv.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			unwedge := sync.OnceFunc(func() { close(release) })
			defer srv.Close()
			defer unwedge()
			conn := udpDial(t, bound.String())
			switch {
			case tc.rrl > 0:
				// The bucket's one token answers this query; every later
				// one is refused, the odd refusals dropped and the even
				// ones slipped.
				conn.Write(query(1, "www.zone.test."))
				if resp, ok := udpRead(t, conn, time.Second); !ok || resp.Truncated {
					t.Fatalf("the bucket's one token did not answer: %v", resp)
				}
				// The worker leaves Inflight after its reply has gone.
				waitStat(t, srv, "worker done", func(st ServerStats) bool { return st.Inflight == 0 })
				for i := 1; i < tc.rrl; i++ {
					conn.Write(query(1, "www.zone.test."))
					waitStat(t, srv, "refusal dropped", func(st ServerStats) bool { return st.RRLDropped == int64(i) })
				}
			case tc.wedge:
				conn.Write(query(1, "www.zone.test."))
				waitStat(t, srv, "worker wedged", func(st ServerStats) bool { return st.Inflight == 1 })
				conn.Write(query(2, "www.zone.test."))
				waitStat(t, srv, "queue filled", func(st ServerStats) bool { return st.Received == 2 })
			}

			before := srv.Stats()
			if tc.tcp {
				c, err := net.Dial("tcp", bound.String())
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				c.Write(append(binary.BigEndian.AppendUint16(nil, uint16(len(tc.wire))), tc.wire...))
				c.SetReadDeadline(time.Now().Add(time.Second))
				if _, err := c.Read(make([]byte, 1)); err == nil {
					t.Fatal("the server answered the frame or kept the connection")
				}
			} else {
				conn.Write(tc.wire)
			}
			if tc.reply != nil {
				resp, ok := udpRead(t, conn, time.Second)
				if !ok || resp.ID != tc.reply.ID || resp.RCode != tc.reply.RCode || resp.Truncated != tc.reply.Truncated {
					t.Fatalf("reply %v, %v; want ID %d, %s, TC=%v", resp, ok, tc.reply.ID, tc.reply.RCode, tc.reply.Truncated)
				}
			}
			settle(t, srv, before, tc.want)

			unwedge()
			waitStat(t, srv, "the partition balanced", func(st ServerStats) bool {
				return st.Inflight == 0 && st.Balanced()
			})
		})
	}
}
