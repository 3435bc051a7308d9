package dnsserver

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
)

// splitHandler answers names under "now." on the read loop, panics there
// on names under "boom.", and declines every other name, which it
// answers on a worker with a different address.
type splitHandler struct{}

var (
	nowAddr    = netip.MustParseAddr("192.0.2.10")
	workerAddr = netip.MustParseAddr("192.0.2.20")
)

func splitAnswer(resp *dnswire.Message, addr netip.Addr) {
	resp.Answers = append(resp.Answers, dnswire.RR{
		Name: resp.Question().Name, Class: dnswire.ClassINET, TTL: 30,
		Data: &dnswire.ARData{Addr: addr},
	})
}

func (splitHandler) HandleDNS(_ netip.Addr, q *dnswire.Message) *dnswire.Message {
	panic("split: every query goes through ServeDNS")
}

func (splitHandler) ServeDNS(_ netip.Addr, q, resp *dnswire.Message, mayWait bool) bool {
	name := string(q.Question().Name)
	switch {
	case mayWait:
		resp.SetReply(q)
		splitAnswer(resp, workerAddr)
		return true
	case strings.HasPrefix(name, "boom."):
		resp.SetReply(q)
		splitAnswer(resp, nowAddr) // half-filled when the panic strikes
		panic("immediate handler bug")
	case strings.HasPrefix(name, "now."):
		resp.SetReply(q)
		splitAnswer(resp, nowAddr)
		return true
	}
	return false
}

// declining declines every query on the read loop, as a resolver
// declines its misses, so each reaches a worker already decoded, where
// it fills the reply in with what the Handler it wraps answers.
type declining struct{ Handler }

func (d declining) ServeDNS(from netip.Addr, q, resp *dnswire.Message, mayWait bool) bool {
	if !mayWait {
		return false
	}
	r := d.HandleDNS(from, q)
	resp.SetReply(q)
	resp.RCode = r.RCode
	resp.Answers = append(resp.Answers, r.Answers...)
	return true
}

// answeredBy requires resp to answer query id with addr.
func answeredBy(t *testing.T, resp *dnswire.Message, ok bool, id uint16, addr netip.Addr) {
	t.Helper()
	if !ok || resp.ID != id || resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 {
		t.Fatalf("query %d: reply %v, %v", id, resp, ok)
	}
	if got := resp.Answers[0].Data.(*dnswire.ARData).Addr; got != addr {
		t.Fatalf("query %d answered %s, want %s", id, got, addr)
	}
}

// TestImmediateDeclineGoesToWorker: a query ServeDNS declines on the
// read loop is answered by ServeDNS on a worker, once, and one it
// answers never reaches a worker.
func TestImmediateDeclineGoesToWorker(t *testing.T) {
	srv := New(splitHandler{})
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := udpDial(t, bound.String())

	conn.Write(packQuery(t, 1, "now.zone.test."))
	resp, ok := udpRead(t, conn, time.Second)
	answeredBy(t, resp, ok, 1, nowAddr)
	if st := srv.Stats(); st.Immediate != 1 || st.Workers != 0 {
		t.Fatalf("an immediate answer: %s, want immediate=1 and no worker", st)
	}

	conn.Write(packQuery(t, 2, "miss.zone.test."))
	resp, ok = udpRead(t, conn, time.Second)
	answeredBy(t, resp, ok, 2, workerAddr)
	waitStat(t, srv, "the declined query's worker done", func(st ServerStats) bool {
		return st.Inflight == 0 && st.Workers == 1 && st.Immediate == 1
	})
}

// TestImmediatePanicIsolation: a panic in ServeDNS is recovered on the
// read loop, answered SERVFAIL in place of the half-filled reply,
// and counted in Panics alone, so the partition balances and the loop
// goes on serving.
func TestImmediatePanicIsolation(t *testing.T) {
	srv := New(splitHandler{})
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := udpDial(t, bound.String())

	conn.Write(packQuery(t, 1, "boom.zone.test."))
	resp, ok := udpRead(t, conn, time.Second)
	if !ok || resp.ID != 1 || resp.RCode != dnswire.RCodeServFail || len(resp.Answers) != 0 {
		t.Fatalf("panic reply = %v, %v, want an empty SERVFAIL for ID 1", resp, ok)
	}
	if q := resp.Question(); q.Name != "boom.zone.test." {
		t.Fatalf("panic reply asks %s, want the query's question", q.Name)
	}
	if st := srv.Stats(); st.Received != 1 || st.Panics != 1 || st.Immediate != 0 || !st.Balanced() {
		t.Fatalf("accounting: %s", st)
	}

	conn.Write(packQuery(t, 2, "now.zone.test."))
	resp, ok = udpRead(t, conn, time.Second)
	answeredBy(t, resp, ok, 2, nowAddr)
}
