package live

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnsclient"
	"ecsdns/internal/dnsserver"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
	"ecsdns/internal/resolver"
)

// servedZone is the zone the chain below serves.
const servedZone = "served.test."

// servedAnswer is the address the authority gives name for subnet: every
// (name, subnet) pair its own.
func servedAnswer(name int, subnet netip.Addr) netip.Addr {
	return netip.AddrFrom4([4]byte{100, byte(name), subnet.As4()[1], 1})
}

// servedScope is the scope the authority gives name: every name its own,
// none shorter than the /16 that keeps the test's subnets apart in the
// resolver's cache.
func servedScope(name int) uint8 { return uint8(16 + name%9) }

// TestServedChainKeepsNoQuery runs the recursor's serving chain over
// loopback — a one-worker dnsserver in front of a resolver, whose pool
// reaches an authority behind a one-worker dnsserver of its own — and
// checks that nothing in it keeps memory it was lent. Each server
// decodes every query into the one Message its worker keeps, so a
// handler that kept a slice, RR or option payload of a query would find
// it rewritten by the next. The test asks for 16 names from 16 client
// subnets, then asks all 256 again from the resolver's cache: every
// answer, ECS echo and scope must be the pair's own both times, and the
// authority must have logged exactly the queries it was sent.
func TestServedChainKeepsNoQuery(t *testing.T) {
	const names, subnets = 16, 16

	auth := servedAuthority()
	var mu sync.Mutex
	var logged []authority.LogRecord
	auth.SetLog(func(r authority.LogRecord) {
		mu.Lock()
		logged = append(logged, r)
		mu.Unlock()
	})
	res := pooledResolver(t, serveOneWorker(t, auth), servedZone, resolver.Config{})
	front := serveOneWorker(t, res).String()

	client := &dnsclient.Client{Timeout: 2 * time.Second, Retries: dnsclient.NoRetries}
	t.Cleanup(client.Close)
	ask := func(round string) {
		t.Helper()
		for i := 0; i < names; i++ {
			name := dnswire.Name(fmt.Sprintf("n%d.%s", i, servedZone))
			for j := 0; j < subnets; j++ {
				subnet := ecsopt.MustNew(netip.AddrFrom4([4]byte{10, byte(j), 7, 0}), 24)
				resp, err := client.Query(front, name, dnswire.TypeA, &subnet)
				if err != nil {
					t.Fatalf("%s: %s from %s: %v", round, name, subnet, err)
				}
				want := servedAnswer(i, subnet.Addr)
				if len(resp.Answers) != 1 || resp.Answers[0].Name != name ||
					resp.Answers[0].Data.(*dnswire.ARData).Addr != want {
					t.Fatalf("%s: %s from %s answered %v, want %s", round, name, subnet, resp.Answers, want)
				}
				echo, ok := dnsclient.ECSFromResponse(resp)
				if wantEcho := subnet.WithScope(int(servedScope(i))); !ok || echo != wantEcho {
					t.Fatalf("%s: %s from %s echoed %v (%v), want %v", round, name, subnet, echo, ok, wantEcho)
				}
			}
		}
	}
	// Every record the authority logged must be the query it was sent,
	// in the order the misses were asked.
	checkLog := func(round string) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		if len(logged) != names*subnets {
			t.Fatalf("%s: the authority logged %d queries, want the %d misses", round, len(logged), names*subnets)
		}
		for k, got := range logged {
			i, j := k/subnets, k%subnets
			want := authority.LogRecord{
				Resolver:    netip.MustParseAddr("127.0.0.1"),
				Name:        dnswire.Name(fmt.Sprintf("n%d.%s", i, servedZone)),
				Type:        dnswire.TypeA,
				QueryHasECS: true,
				QueryECS:    ecsopt.MustNew(netip.AddrFrom4([4]byte{10, byte(j), 7, 0}), 24),
				RespHasECS:  true,
				RespScope:   servedScope(i),
				RCode:       dnswire.RCodeNoError,
			}
			if got != want {
				t.Fatalf("%s: log record %d = %+v, want %+v", round, k, got, want)
			}
		}
	}
	ask("misses")
	checkLog("misses")
	ask("hits")
	checkLog("hits")
}

// servedAuthority is the authority as cmd/authdns configures it — ECS
// on, the zone served — with the CDN-mapping hook answering each (name,
// subnet) pair on its own.
func servedAuthority() *authority.Server {
	auth := authority.NewServer(authority.Config{ECSEnabled: true})
	auth.AddZone(authority.NewZone(servedZone, 300))
	auth.SetDynamic(func(q dnswire.Question, cs ecsopt.ClientSubnet, hasECS bool, _ netip.Addr) ([]dnswire.RR, uint8, bool, bool) {
		var i int
		if _, err := fmt.Sscanf(string(q.Name), "n%d."+servedZone, &i); err != nil || !hasECS || q.Type != dnswire.TypeA {
			return nil, 0, false, false
		}
		rr := dnswire.RR{Name: q.Name, Class: dnswire.ClassINET, TTL: 300,
			Data: &dnswire.ARData{Addr: servedAnswer(i, cs.Addr)}}
		return []dnswire.RR{rr}, servedScope(i), true, true
	})
	return auth
}

// TestServedChainConcurrentMisses runs the chain with both servers'
// default worker pools and eight clients asking fresh names at once, so
// misses resolve side by side, each building its query and decoding its
// answer in a resolution drawn from the resolver's pool. Every answer,
// echo and scope must be its own pair's, and every record the cache
// kept must still read as its own when asked again.
func TestServedChainConcurrentMisses(t *testing.T) {
	const clients, each = 8, 32 // names n0 … n255: servedAnswer's byte
	res := pooledResolver(t, serveGate(t, servedAuthority()), servedZone, resolver.Config{})
	front := serveGate(t, res).String()

	ask := func(g int) {
		client := &dnsclient.Client{Timeout: 2 * time.Second, Retries: dnsclient.NoRetries}
		defer client.Close()
		subnet := ecsopt.MustNew(netip.AddrFrom4([4]byte{10, byte(g), 7, 0}), 24)
		for k := 0; k < each; k++ {
			i := g*each + k
			name := dnswire.Name(fmt.Sprintf("n%d.%s", i, servedZone))
			resp, err := client.Query(front, name, dnswire.TypeA, &subnet)
			if err != nil {
				t.Errorf("%s from %s: %v", name, subnet, err)
				return
			}
			want := servedAnswer(i, subnet.Addr)
			echo, ok := dnsclient.ECSFromResponse(resp)
			if len(resp.Answers) != 1 || resp.Answers[0].Name != name ||
				resp.Answers[0].Data.(*dnswire.ARData).Addr != want ||
				!ok || echo != subnet.WithScope(int(servedScope(i))) {
				t.Errorf("%s from %s answered %v echoing %v, want %s at scope %d", name, subnet, resp.Answers, echo, want, servedScope(i))
				return
			}
		}
	}
	for round := 0; round < 2; round++ { // misses, then the same pairs from the cache
		var wg sync.WaitGroup
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ask(g)
			}()
		}
		wg.Wait()
	}
	if c, u := res.Counters(); c != 2*clients*each || u != clients*each {
		t.Fatalf("%d client queries and %d upstream, want %d and %d", c, u, 2*clients*each, clients*each)
	}
}

// serveOneWorker serves h on loopback with a single UDP worker, so every
// UDP query is decoded into the same Message.
func serveOneWorker(t *testing.T, h dnsserver.Handler) netip.AddrPort {
	t.Helper()
	srv := dnsserver.New(h)
	srv.MaxInflight = 1
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}
