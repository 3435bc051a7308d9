package dnsserver

import (
	"net/netip"
	"strings"
	"sync"
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
	if st := srv.Stats(); st.Received != 1 || st.Panics != 1 || st.Immediate != 0 || st.Check() != nil {
		t.Fatalf("accounting: %s", st)
	}

	conn.Write(packQuery(t, 2, "now.zone.test."))
	resp, ok = udpRead(t, conn, time.Second)
	answeredBy(t, resp, ok, 2, nowAddr)
}

// keeper answers names under "now." on the read loop and declines every
// other name to a worker, which answers it; it keeps the name of each
// query it answers, as a cache keeps its key.
type keeper struct {
	mu   sync.Mutex
	kept []dnswire.Name
}

func (k *keeper) HandleDNS(netip.Addr, *dnswire.Message) *dnswire.Message {
	panic("keeper: every query goes through ServeDNS")
}

func (k *keeper) ServeDNS(_ netip.Addr, q, resp *dnswire.Message, mayWait bool) bool {
	name := q.Question().Name
	if !mayWait && !strings.HasPrefix(string(name), "now.") {
		return false
	}
	k.mu.Lock()
	k.kept = append(k.kept, name)
	k.mu.Unlock()
	resp.SetReply(q)
	splitAnswer(resp, nowAddr)
	return true
}

// TestBorrowedNamesOnTheReadLoop pins the handler contract on names: a
// name kept from a call without mayWait is borrowed, a view of the query
// Message, and reads the next query's bytes once the read loop has
// decoded that into the same Message; a name kept from a worker's call
// is the handler's own and does not change when its Message comes back
// to the loop for the next query.
func TestBorrowedNamesOnTheReadLoop(t *testing.T) {
	k := &keeper{}
	srv := New(k)
	srv.MaxInflight = 1 // one Message goes to the worker and back
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn := udpDial(t, addr.String())
	kept := func(i int) dnswire.Name {
		k.mu.Lock()
		defer k.mu.Unlock()
		return k.kept[i]
	}
	for i, name := range []dnswire.Name{"now.aaaa.test.", "now.bbbb.test.", "wait.cccc.test.", "wait.dddd.test."} {
		conn.Write(packQuery(t, uint16(i), name))
		resp, ok := udpRead(t, conn, 2*time.Second)
		answeredBy(t, resp, ok, uint16(i), nowAddr)
		if got := kept(0); i == 1 && got != name {
			t.Errorf("a name kept on the read loop reads %q after the next query, want %s: the loop's names are not borrowed", got, name)
		}
	}
	if got := kept(2); got != "wait.cccc.test." {
		t.Errorf("a name kept on a worker reads %q after its Message took the next query, want wait.cccc.test.", got)
	}
	if st := srv.Stats(); st.Immediate != 2 || st.Answered != 4 {
		t.Fatalf("want 2 of 4 queries answered on the read loop: %s", st)
	}
}
