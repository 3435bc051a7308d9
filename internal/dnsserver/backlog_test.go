package dnsserver

import (
	"net/netip"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/netem"
)

// holdHandler answers names under "now." and "hold." on the read loop and
// declines every other name, which it answers on a worker. The first
// query for "hold." holds the read loop: it reports on held and waits
// for release.
type holdHandler struct {
	held    chan struct{} // room for one
	release chan struct{}
}

func (holdHandler) HandleDNS(netip.Addr, *dnswire.Message) *dnswire.Message {
	panic("hold: every query goes through ServeDNS")
}

func (h holdHandler) ServeDNS(_ netip.Addr, q, resp *dnswire.Message, mayWait bool) bool {
	name := string(q.Question().Name)
	switch {
	case mayWait:
		resp.SetReply(q)
		splitAnswer(resp, workerAddr)
		return true
	case strings.HasPrefix(name, "hold."):
		select {
		case h.held <- struct{}{}:
			<-h.release
		default:
		}
		fallthrough
	case strings.HasPrefix(name, "now."):
		resp.SetReply(q)
		splitAnswer(resp, nowAddr)
		return true
	}
	return false
}

// TestBacklogBurst holds the read loop on its first query until 40
// datagrams are queued behind it, so the loop takes them in batches. They
// mix every way a datagram ends on the loop: answered there, declined to
// a worker, answered FORMERR, a response never answered, and, once the
// limiter's bucket is empty, dropped and slipped in turn. Each datagram
// that is answered must get exactly one reply, with its ID and of its
// kind, and the counters must partition what was received.
func TestBacklogBurst(t *testing.T) {
	const queued = 40
	h := holdHandler{held: make(chan struct{}, 1), release: make(chan struct{})}
	srv := New(h)
	// A frozen clock and a bucket of 31 tokens: the held query and the
	// first 30 queued pass, and the last 10 are refused, dropped and
	// slipped in turn.
	srv.RRL = 31
	srv.Now = netem.NewClock(netem.SimStart).Now
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := udpDial(t, addr.String())

	const (
		loop = iota
		worker
		formErr
		slip
	)
	want := map[uint16]int{} // the reply each answered ID must get
	conn.Write(packQuery(t, 1, "hold.burst.test."))
	want[1] = loop
	select {
	case <-h.held:
	case <-time.After(5 * time.Second):
		t.Fatal("the read loop never took the held query")
	}
	response := dnswire.NewQuery(0, "resp.burst.test.", dnswire.TypeA)
	response.Response = true
	for i := 0; i < queued; i++ {
		id := uint16(0x100 + i)
		var wire []byte
		switch {
		case i >= 30:
			wire = packQuery(t, id, dnswire.Name("now.q"+strconv.Itoa(i)+".burst.test."))
			if (i-30)%2 == 1 {
				want[id] = slip
			}
		case i%4 == 0:
			wire = packQuery(t, id, dnswire.Name("now.q"+strconv.Itoa(i)+".burst.test."))
			want[id] = loop
		case i%4 == 1:
			wire = packQuery(t, id, dnswire.Name("wait.q"+strconv.Itoa(i)+".burst.test."))
			want[id] = worker
		case i%4 == 2:
			// The header and the first bytes of a question.
			wire = packQuery(t, id, "undecodable.burst.test.")[:14]
			want[id] = formErr
		default:
			response.ID = id
			if wire, err = response.Pack(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
	}
	close(h.release)

	got := map[uint16]int{}
	for len(got) < len(want) {
		resp, ok := udpRead(t, conn, 5*time.Second)
		if !ok {
			break
		}
		kind := -1
		switch {
		case resp.Truncated && resp.RCode == dnswire.RCodeNoError && len(resp.Answers) == 0:
			kind = slip
		case resp.RCode == dnswire.RCodeFormErr:
			kind = formErr
		case len(resp.Answers) == 1 && resp.Answers[0].Data.(*dnswire.ARData).Addr == nowAddr:
			kind = loop
		case len(resp.Answers) == 1 && resp.Answers[0].Data.(*dnswire.ARData).Addr == workerAddr:
			kind = worker
		}
		if _, dup := got[resp.ID]; dup {
			t.Fatalf("ID %#x answered twice", resp.ID)
		}
		got[resp.ID] = kind
	}
	// A reply to anything else, or a second reply, would come now.
	if resp, ok := udpRead(t, conn, 100*time.Millisecond); ok {
		t.Fatalf("an extra reply: %v", resp)
	}
	for id, kind := range want {
		if g, ok := got[id]; !ok || g != kind {
			t.Errorf("ID %#x: got reply kind %d (present %v), want %d", id, g, ok, kind)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d replies, want %d", len(got), len(want))
	}
	// The held query and 7 more on the loop, 8 on workers, 7 FORMERRs and
	// 7 responses malformed, 5 dropped and 5 slipped.
	waitStat(t, srv, "the burst's accounting", func(st ServerStats) bool {
		return st.Received == queued+1 && st.Answered == 17 && st.Immediate == 9 &&
			st.Malformed == 14 && st.Shed == 5 && st.RRLDropped == 5 && st.Slipped == 5 &&
			st.Inflight == 0 && st.Check() == nil
	})
}

// anonMapped sums the sizes of the process's anonymous mappings and
// reads how many threads it has.
func anonMapped(t *testing.T) (bytes int64, threads string) {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps here: %v", err)
	}
	for _, line := range strings.Split(string(maps), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 5 { // a sixth field names a file or [heap], [stack]
			continue
		}
		lo, hi, _ := strings.Cut(fields[0], "-")
		a, err1 := strconv.ParseUint(lo, 16, 64)
		b, err2 := strconv.ParseUint(hi, 16, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unreadable mapping %q", line)
		}
		bytes += int64(b - a)
	}
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc/self/status here: %v", err)
	}
	_, threads, _ = strings.Cut(string(status), "Threads:")
	threads, _, _ = strings.Cut(threads, "\n")
	return bytes, threads
}

// TestReaderUnmappedOnClose starts and closes a server 50 times: each
// maps its read loop's buffers, and each Close must unmap them, so the
// process's anonymous mappings end where they began. The runtime maps
// memory of its own meanwhile, in small steps (up to 320 KiB over a
// round), so a round may grow them by less than ten servers' buffers; a
// server that kept its buffers mapped grows them by 50. A thread the
// runtime starts maps its stack (and, with cgo, a 64 MiB malloc arena),
// so a round that saw one is run again.
func TestReaderUnmappedOnClose(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector maps shadow memory as the heap grows")
	}
	const slack = 10 * loopBatch * 65535
	cycle := func() {
		srv := New(answering())
		if _, err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		srv.Close()
	}
	cycle() // the runtime's own first mappings
	for round := 0; round < 5; round++ {
		before, threads := anonMapped(t)
		for i := 0; i < 50; i++ {
			cycle()
		}
		after, threadsAfter := anonMapped(t)
		if threadsAfter != threads {
			continue
		}
		if after-before >= slack {
			t.Fatalf("anonymous mappings went from %d to %d bytes over 50 servers", before, after)
		}
		return
	}
	t.Fatal("the runtime started a thread in each of 5 rounds")
}
