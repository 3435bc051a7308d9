package resolver

import (
	"errors"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecsopt"
)

// TestConcurrentClients hammers one resolver from many goroutines: the
// cache, counters and probing state are shared and must stay consistent
// under the race detector.
func TestConcurrentClients(t *testing.T) {
	rg := newRig(t, GoogleLikeProfile(), authority.ScopeFixed(24))
	const (
		goroutines = 16
		perG       = 50
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := rg.client("London", 9+g%4)
			for i := 0; i < perG; i++ {
				name := dnswire.Name(fmt.Sprintf("c%d.test.example.", i%10))
				q := dnswire.NewQuery(uint16(g*perG+i), name, dnswire.TypeA)
				q.EDNS = dnswire.NewEDNS()
				resp, _, err := rg.net.Exchange(client, rg.res.Addr(), q)
				if err != nil {
					errs <- err
					return
				}
				if resp.RCode != dnswire.RCodeNoError {
					errs <- fmt.Errorf("rcode %v", resp.RCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	clientQ, upstreamQ := rg.res.Counters()
	if clientQ != goroutines*perG {
		t.Fatalf("client queries = %d, want %d", clientQ, goroutines*perG)
	}
	if upstreamQ > clientQ {
		t.Fatalf("upstream %d exceeds client %d", upstreamQ, clientQ)
	}
	// The cache must have absorbed most of the repetition.
	if upstreamQ*2 > clientQ {
		t.Fatalf("cache ineffective under concurrency: %d upstream for %d client", upstreamQ, clientQ)
	}
}

// gatedTransport is an upstream that blocks every exchange on a gate
// channel, so a test can hold a herd of resolutions in flight and count
// how many upstream queries actually escape. With fail set it answers
// every exchange with an error.
type gatedTransport struct {
	gate    chan struct{}
	entered chan struct{} // closed when the first exchange arrives
	calls   atomic.Int64
	fail    bool
}

func (g *gatedTransport) Exchange(from, to netip.Addr, query *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	if g.calls.Add(1) == 1 {
		close(g.entered)
	}
	<-g.gate
	if g.fail {
		return nil, 0, errors.New("upstream down")
	}
	resp := dnswire.NewResponse(query)
	resp.Answers = []dnswire.RR{{
		Name: query.Question().Name, Class: dnswire.ClassINET, TTL: 60,
		Data: &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.50")},
	}}
	if cs, present, err := ecsopt.FromMessage(query); present && err == nil {
		resp.EDNS = dnswire.NewEDNS()
		ecsopt.Attach(resp, cs.WithScope(int(cs.SourcePrefix)))
	}
	return resp, 0, nil
}

// runHerd sends herd concurrent queries for one name, from clients that
// share 10.9.8.0/24 (so every resolution carries the same masked ECS
// prefix and may coalesce), through a resolver over a gatedTransport.
// It holds the gate until every follower is provably parked on the
// leader's flight, which turns "one resolution" from a usually-won race
// into a guarantee, and hands each client's reply to check.
func runHerd(t *testing.T, herd int, fail bool, check func(i int, resp *dnswire.Message)) (*Resolver, *gatedTransport) {
	now := time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC)
	upstream := &gatedTransport{gate: make(chan struct{}), entered: make(chan struct{}), fail: fail}
	dir := NewDirectory()
	dir.Add("example.com.", netip.MustParseAddr("198.51.100.53"))
	res := New(Config{
		Addr:      netip.MustParseAddr("203.0.113.53"),
		Transport: upstream,
		Now:       func() time.Time { return now },
		Directory: dir,
		Profile:   CompliantProfile(),
		Seed:      1,
	})
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := dnswire.NewQuery(uint16(i+1), "herd.example.com.", dnswire.TypeA)
			q.EDNS = dnswire.NewEDNS()
			check(i, res.HandleDNS(netip.AddrFrom4([4]byte{10, 9, 8, byte(i + 1)}), q))
		}()
	}
	<-upstream.entered
	for res.Cache().Stats().Coalesced != int64(herd-1) {
		runtime.Gosched()
	}
	close(upstream.gate)
	wg.Wait()
	return res, upstream
}

// TestThunderingHerdCoalesces is the singleflight acceptance test at
// the resolver layer: N concurrent clients behind one /24 missing on
// the same name must produce exactly ONE upstream query, with the
// other N-1 resolutions parked on the leader and answered from its
// result.
func TestThunderingHerdCoalesces(t *testing.T) {
	const herd = 12
	res, upstream := runHerd(t, herd, false, func(i int, resp *dnswire.Message) {
		if resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 {
			t.Errorf("client %d: rcode %v, %d answers", i, resp.RCode, len(resp.Answers))
		}
	})
	if got := upstream.calls.Load(); got != 1 {
		t.Fatalf("authority saw %d queries from a %d-client herd, want 1", got, herd)
	}
	if _, up := res.Counters(); up != 1 {
		t.Fatalf("upstream counter = %d, want 1", up)
	}
	// And the herd warmed the cache: a later same-/24 client hits.
	q := dnswire.NewQuery(99, "herd.example.com.", dnswire.TypeA)
	q.EDNS = dnswire.NewEDNS()
	if resp := res.HandleDNS(netip.AddrFrom4([4]byte{10, 9, 8, 200}), q); len(resp.Answers) != 1 {
		t.Fatal("post-herd lookup missed the cache")
	}
	if got := upstream.calls.Load(); got != 1 {
		t.Fatalf("post-herd lookup went upstream (%d calls)", got)
	}
}

// TestFailedHerdAccounted: a herd coalesced onto a resolution that fails
// is answered SERVFAIL client by client, and each answer counts as a
// failed resolution, so FailureCounters.Check holds.
func TestFailedHerdAccounted(t *testing.T) {
	const herd = 6
	res, _ := runHerd(t, herd, true, func(i int, resp *dnswire.Message) {
		if resp.RCode != dnswire.RCodeServFail {
			t.Errorf("client %d: rcode %v, want SERVFAIL", i, resp.RCode)
		}
	})
	if f := res.Failures(); f.ServFailsReturned != herd || f.Check() != nil {
		t.Fatalf("%d coalesced clients answered SERVFAIL: %+v (%v)", herd, f, f.Check())
	}
}

// TestConcurrentMixedProfiles runs different-profile resolvers in
// parallel against the same authority.
func TestConcurrentMixedProfiles(t *testing.T) {
	rg := newRig(t, GoogleLikeProfile(), authority.ScopeFixed(24))
	profiles := []Profile{
		CompliantProfile(), IgnoreScopeProfile(), JammedProfile(),
		Cap22Profile(), AdaptiveProfile(),
	}
	var resolvers []*Resolver
	for i, p := range profiles {
		addr := rg.world.AddrInCity(i*3%10, 40+i, 53)
		r := New(Config{
			Addr: addr, Transport: rg.net, Now: rg.net.Clock().Now,
			Directory: rg.res.cfg.Directory, Profile: p, Seed: int64(i),
		})
		rg.net.Register(addr, r)
		resolvers = append(resolvers, r)
	}
	var wg sync.WaitGroup
	for i, r := range resolvers {
		wg.Add(1)
		go func(i int, r *Resolver) {
			defer wg.Done()
			client := rg.client("Paris", i)
			for j := 0; j < 40; j++ {
				name := dnswire.Name(fmt.Sprintf("m%d.test.example.", j%5))
				q := dnswire.NewQuery(uint16(j), name, dnswire.TypeA)
				q.EDNS = dnswire.NewEDNS()
				rg.net.Exchange(client, r.Addr(), q) //nolint:errcheck
			}
		}(i, r)
	}
	wg.Wait()
	for i, r := range resolvers {
		c, _ := r.Counters()
		if c != 40 {
			t.Fatalf("resolver %d served %d queries", i, c)
		}
	}
}

// scopeSixteen answers every query with one record and, when the query
// carries ECS, echoes it at scope /16. It counts the queries that
// carried ECS.
type scopeSixteen struct{ withECS atomic.Int64 }

func (s *scopeSixteen) Exchange(_, _ netip.Addr, query *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	resp := dnswire.NewResponse(query)
	resp.Answers = []dnswire.RR{{
		Name: query.Question().Name, Class: dnswire.ClassINET, TTL: 60,
		Data: &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.50")},
	}}
	if cs, present, err := ecsopt.FromMessage(query); present && err == nil {
		s.withECS.Add(1)
		resp.EDNS = dnswire.NewEDNS()
		ecsopt.Attach(resp, cs.WithScope(16))
	}
	return resp, 0, nil
}

// TestConcurrentDecisions serves one resolver per stateful profile from
// many goroutines at one instant, so every hop's ID draw and decision
// meet on the same probeState: the cycled and jammed ProbeRandom
// prefixes, the interval clock and the learned scopes. The race detector
// checks the sharing; an interval prober sends exactly one probe, however
// its probe string and other names interleave.
func TestConcurrentDecisions(t *testing.T) {
	const probe = dnswire.Name("pinned.example.com.")
	mixed := FullPrefixProfile()
	mixed.Probing, mixed.MixedV4Bits, mixed.JamLastByte, mixed.JamValue = ProbeRandom, []int{24, 25, 32}, true, 1
	interval := LoopbackProberProfile()
	interval.ProbeNames = []dnswire.Name{probe}
	for _, p := range []Profile{mixed, interval, AdaptiveProfile()} {
		now := time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC)
		upstream := &scopeSixteen{}
		dir := NewDirectory()
		dir.Add("example.com.", netip.MustParseAddr("198.51.100.53"))
		res := New(Config{
			Addr: netip.MustParseAddr("203.0.113.53"), Transport: upstream,
			Now: func() time.Time { return now }, Directory: dir, Profile: p, Seed: 1,
		})
		const goroutines, perG = 8, 25
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					name := probe
					if i%2 == 1 {
						name = dnswire.Name(fmt.Sprintf("n%d-%d.example.com.", g, i))
					}
					q := dnswire.NewQuery(uint16(i), name, dnswire.TypeA)
					q.EDNS = dnswire.NewEDNS()
					res.HandleDNS(netip.AddrFrom4([4]byte{10, byte(g), byte(i), 7}), q)
				}
			}()
		}
		wg.Wait()
		if c, _ := res.Counters(); c != goroutines*perG {
			t.Fatalf("%v: served %d queries, want %d", p.Probing, c, goroutines*perG)
		}
		if got := upstream.withECS.Load(); p.Probing == ProbeInterval && got != 1 {
			t.Fatalf("interval prober sent %d probes at one instant, want 1", got)
		}
	}
}
