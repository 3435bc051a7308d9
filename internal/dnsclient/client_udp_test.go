package dnsclient

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
)

// TestAllocGateClientExchangeUDP bounds what one UDP round trip
// allocates on a warm ring. Through ExchangeUDP it is the decoded
// response, which the caller keeps. Through ExchangeUDPInto the response
// is decoded into a Message the caller keeps from one exchange to the
// next, so a repeated answer costs nothing. Either way the query is
// packed into a pooled buffer and the 64 KiB read buffer is pooled, so
// bytes per exchange stay well under 1 KiB, and the socket is dialed
// once in ringUses exchanges, so its dozen objects come to a fraction
// of one.
func TestAllocGateClientExchangeUDP(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	server := startEchoResponder(t, nil).String()
	q := allocGateQuery("gate.client.test.")
	var kept dnswire.Message
	for _, tc := range []struct {
		name     string
		exchange func(*Client) error
		objects  float64
	}{
		{"ExchangeUDP", func(c *Client) error { _, err := c.ExchangeUDP(server, q); return err }, 8},
		// Only the ring's dials: ≈12 objects once in ringUses exchanges.
		{"ExchangeUDPInto", func(c *Client) error { return c.ExchangeUDPInto(server, q, &kept) }, 0.3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &Client{Timeout: 2 * time.Second}
			exchange := func() {
				if err := tc.exchange(c); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 16; i++ {
				exchange() // warm the buffer pool and the codec's
			}
			const runs = 200
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				exchange()
			}
			runtime.ReadMemStats(&after)
			bytes := (after.TotalAlloc - before.TotalAlloc) / runs
			objects := float64(after.Mallocs-before.Mallocs) / runs
			t.Logf("%s: %d B and %.2f objects per exchange", tc.name, bytes, objects)
			if bytes >= 1<<10 || objects > tc.objects {
				t.Fatalf("%s allocates %d B and %.2f objects per exchange, want < 1 KiB and <= %v", tc.name, bytes, objects, tc.objects)
			}
		})
	}
	if kept.ID != q.ID || len(kept.Questions) != 1 || kept.Questions[0] != q.Questions[0] {
		t.Fatalf("the kept Message holds %v, want the answer to %v", &kept, q)
	}
}

// TestClientBufferIsolation runs concurrent exchanges for distinct names
// whose answers encode the name, keeps every response, and checks each
// against its own question only after all exchanges have finished: a
// pooled read buffer still referenced by a returned Message would have
// been overwritten by a later exchange by then.
func TestClientBufferIsolation(t *testing.T) {
	addr := startPipelineServer(t, &nameHashHandler{})
	c := &Client{Timeout: 2 * time.Second}
	const goroutines, each = 8, 200
	type kept struct {
		name dnswire.Name
		resp *dnswire.Message
	}
	results := make([][]kept, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				name := dnswire.MustParseName("g" + itoa(g) + "-q" + itoa(i) + ".iso.test.")
				resp, err := c.ExchangeUDP(addr, pipeQuery(name))
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				results[g] = append(results[g], kept{name, resp})
			}
		}()
	}
	wg.Wait()
	for _, rs := range results {
		for _, k := range rs {
			if got := k.resp.Question().Name; got != k.name {
				t.Fatalf("response for %s now carries question %s", k.name, got)
			}
			if len(k.resp.Answers) != 1 {
				t.Fatalf("%s: %d answers, want 1", k.name, len(k.resp.Answers))
			}
			a, ok := k.resp.Answers[0].Data.(*dnswire.ARData)
			if !ok || k.resp.Answers[0].Name != k.name || a.Addr != hashAddr(k.name) {
				t.Fatalf("%s: answer %v does not encode its name", k.name, k.resp.Answers[0])
			}
		}
	}
}

// TestClientRefusedFailsFast pins why Client's sockets are connected
// ones: the ICMP port-unreachable from a dead upstream surfaces as an
// error at once, instead of the exchange sitting out its timeout — the
// signal the upstream pool's failover and breakers run on.
// TestClientParkedSocketFailsFast is the same for a socket from the ring.
func TestClientRefusedFailsFast(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("relies on Linux delivering ICMP errors to connected UDP sockets")
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := pc.LocalAddr().String()
	pc.Close()
	c := &Client{Timeout: 2 * time.Second}
	start := time.Now()
	_, err = c.ExchangeUDP(closed, allocGateQuery("dead.client.test."))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("closed port answered")
	}
	if elapsed >= c.Timeout/4 {
		t.Fatalf("ExchangeUDP to a closed port took %v (%v), want under %v", elapsed, err, c.Timeout/4)
	}
}
