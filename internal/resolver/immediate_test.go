package resolver

import (
	"net/netip"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecscache"
	"ecsdns/internal/ecsopt"
	"ecsdns/internal/netem"
)

// The cache-answer step (ServeDNS without mayWait) on its own. How it runs behind
// a dnsserver, hits on the read loop and misses on workers, is checked
// with the served chain in internal/upstreams/live.

// upstreamZone is where cannedUpstream answers.
const upstreamZone = "imm.test."

// cannedUpstream answers every A query with one record, TTL 300, at the
// name's address in the map (192.0.2.1 for the rest), echoing the
// query's ECS option at scope = source.
type cannedUpstream map[dnswire.Name]netip.Addr

func (u cannedUpstream) Exchange(_, _ netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	name := q.Question().Name
	addr, ok := u[name]
	if !ok {
		addr = netip.MustParseAddr("192.0.2.1")
	}
	resp := dnswire.NewResponse(q)
	resp.Answers = append(resp.Answers, dnswire.RR{
		Name: name, Class: dnswire.ClassINET, TTL: 300,
		Data: &dnswire.ARData{Addr: addr},
	})
	if cs, hasECS, _ := ecsopt.FromMessage(q); hasECS {
		ecsopt.Attach(resp, cs.WithScope(int(cs.SourcePrefix)))
	}
	return resp, 0, nil
}

// cannedResolver builds a resolver over up on the clock clk.
func cannedResolver(p Profile, up cannedUpstream, clk *netem.Clock) *Resolver {
	dir := NewDirectory()
	dir.Add(upstreamZone, netip.MustParseAddr("203.0.113.53"))
	return New(Config{
		Addr:      netip.MustParseAddr("198.51.100.53"),
		Transport: up,
		Now:       clk.Now,
		Directory: dir,
		Profile:   p,
		Seed:      1,
	})
}

// TestImmediateRepliesOwnTheirRecords runs two cached names through one
// reply Message, alternating, as one read loop does, with the clock
// moving so each answer's TTL is the entry's remaining lifetime. Each
// reply must carry its own name's record at that TTL, and the cache's
// records must keep the TTL and address they were stored with: a reply
// that shared the cache's record slice would have its TTL written, and
// its next refill appended, over the cache.
func TestImmediateRepliesOwnTheirRecords(t *testing.T) {
	a, b := dnswire.Name("a."+upstreamZone), dnswire.Name("b."+upstreamZone)
	addrs := map[dnswire.Name]netip.Addr{a: netip.MustParseAddr("192.0.2.10"), b: netip.MustParseAddr("192.0.2.20")}
	clk := netem.NewClock(netem.SimStart)
	r := cannedResolver(GoogleLikeProfile(), addrs, clk)
	client := netip.MustParseAddr("198.51.100.7")
	query := func(name dnswire.Name) *dnswire.Message {
		q := dnswire.NewQuery(7, name, dnswire.TypeA)
		q.EDNS = dnswire.NewEDNS()
		return q
	}
	for _, name := range []dnswire.Name{a, b} {
		r.HandleDNS(client, query(name)) // the misses that fill the cache
	}

	var resp dnswire.Message
	for i := 0; i < 6; i++ {
		clk.Advance(10 * time.Second)
		name := []dnswire.Name{a, b}[i%2]
		if !r.ServeDNS(client, query(name), &resp, false) {
			t.Fatalf("round %d: %s declined, want a hit", i, name)
		}
		want := uint32(300 - 10*(i+1))
		if len(resp.Answers) != 1 || resp.Answers[0].Name != name || resp.Answers[0].TTL != want ||
			resp.Answers[0].Data.(*dnswire.ARData).Addr != addrs[name] {
			t.Fatalf("round %d: %s answered %v, want %s at TTL %d", i, name, resp.Answers, addrs[name], want)
		}
	}
	for _, name := range []dnswire.Name{a, b} {
		key := ecscache.KeyOf(dnswire.Question{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassINET})
		e, ok := r.Cache().Lookup(key, client, clk.Now())
		if !ok || len(e.Answer) != 1 {
			t.Fatalf("%s left the cache: %v", name, e)
		}
		if rr := e.Answer[0]; rr.Name != name || rr.TTL != 300 || rr.Data.(*dnswire.ARData).Addr != addrs[name] {
			t.Fatalf("%s's cached record now reads %v, want %s at TTL 300", name, rr, addrs[name])
		}
	}
}

// TestWorkerRepliesOwnTheirRecords is TestImmediateRepliesOwnTheirRecords
// with mayWait set, as a dnsserver worker or TCP connection serves: two
// names are missed and then hit, alternating, through one reply Message.
// A miss's reply must copy the records its resolution cached, not take
// their slice: the next query's refill would then append its records
// over the cache's, and a later hit would be answered the other name's.
func TestWorkerRepliesOwnTheirRecords(t *testing.T) {
	a, b := dnswire.Name("a."+upstreamZone), dnswire.Name("b."+upstreamZone)
	addrs := map[dnswire.Name]netip.Addr{a: netip.MustParseAddr("192.0.2.10"), b: netip.MustParseAddr("192.0.2.20")}
	clk := netem.NewClock(netem.SimStart)
	r := cannedResolver(GoogleLikeProfile(), addrs, clk)
	client := netip.MustParseAddr("198.51.100.7")

	var resp dnswire.Message
	for i := 0; i < 6; i++ { // the first two rounds miss, the rest hit
		clk.Advance(10 * time.Second)
		name := []dnswire.Name{a, b}[i%2]
		q := dnswire.NewQuery(7, name, dnswire.TypeA)
		q.EDNS = dnswire.NewEDNS()
		if !r.ServeDNS(client, q, &resp, true) {
			t.Fatalf("round %d: %s unanswered", i, name)
		}
		if len(resp.Answers) != 1 || resp.Answers[0].Name != name || resp.Answers[0].Data.(*dnswire.ARData).Addr != addrs[name] {
			t.Fatalf("round %d: %s answered %v, want %s", i, name, resp.Answers, addrs[name])
		}
	}
	for _, name := range []dnswire.Name{a, b} {
		key := ecscache.KeyOf(dnswire.Question{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassINET})
		e, ok := r.Cache().Lookup(key, client, clk.Now())
		if !ok || len(e.Answer) != 1 {
			t.Fatalf("%s left the cache: %v", name, e)
		}
		if rr := e.Answer[0]; rr.Name != name || rr.TTL != 300 || rr.Data.(*dnswire.ARData).Addr != addrs[name] {
			t.Fatalf("%s's cached record now reads %v, want %s at TTL 300", name, rr, addrs[name])
		}
	}
}

// TestAllocGateHandleImmediate counts what a resolver hit costs through
// ServeDNS without mayWait into a reply refilled in place: a client ECS option
// decoded, the entry found, its record copied and the subnet echoed,
// with nothing allocated.
func TestAllocGateHandleImmediate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	name := dnswire.Name("hot." + upstreamZone)
	r := cannedResolver(CompliantProfile(), nil, netem.NewClock(netem.SimStart))
	client := netip.MustParseAddr("198.51.100.7")
	q := dnswire.NewQuery(7, name, dnswire.TypeA)
	ecsopt.Attach(q, ecsopt.MustNew(netip.MustParseAddr("203.0.113.0"), 24))
	r.HandleDNS(client, q)

	var resp dnswire.Message
	hit := func() {
		if !r.ServeDNS(client, q, &resp, false) {
			t.Fatal("the cached name was declined")
		}
	}
	hit()
	if _, ok := resp.EDNS.Option(dnswire.OptionCodeECS); !ok || len(resp.Answers) != 1 {
		t.Fatalf("the hit's reply lacks its record or ECS echo: %v", resp)
	}
	if allocs := testing.AllocsPerRun(1000, hit); allocs > 0 {
		t.Fatalf("a hit through ServeDNS allocates %v objects, want 0", allocs)
	}
}
