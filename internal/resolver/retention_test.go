package resolver

import (
	"fmt"
	"net/netip"
	"runtime"
	"strings"
	"testing"
	"time"

	"ecsdns/internal/dnswire"
	"ecsdns/internal/ecscache"
	"ecsdns/internal/ecsopt"
	"ecsdns/internal/netem"
)

// retentionZone is where decodingPool answers; cdnZone is where its
// CNAMEs point.
const (
	retentionZone = "ret.test."
	cdnZone       = "cdn.test."
)

// decodingPool is a fillPool that decodes each answer into the Message
// ExchangeInto is given, as upstreams.Pool does a datagram: a payload
// decoded there before is rewritten in place by the next answer of the
// same type. A name in cnames is answered with a CNAME to its target,
// any other with an A record at its address in addrs; the query's ECS
// option is answered with echo's. While hold is set, an exchange sends
// on held once it has decoded and then waits on hold.
type decodingPool struct {
	addrs      map[dnswire.Name]netip.Addr
	cnames     map[dnswire.Name]dnswire.Name
	echo       func(ecsopt.ClientSubnet) ecsopt.ClientSubnet
	hold, held chan struct{}
}

// atScope echoes a query's ECS option at scope.
func atScope(scope int) func(ecsopt.ClientSubnet) ecsopt.ClientSubnet {
	return func(cs ecsopt.ClientSubnet) ecsopt.ClientSubnet { return cs.WithScope(scope) }
}

func (p *decodingPool) Exchange(from netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	return p.ExchangeInto(from, q, new(dnswire.Message))
}

func (p *decodingPool) ExchangeInto(_ netip.Addr, q, into *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	name := q.Question().Name
	resp := dnswire.NewResponse(q)
	rr := dnswire.RR{Name: name, Class: dnswire.ClassINET, TTL: 300, Data: &dnswire.ARData{Addr: p.addrs[name]}}
	if target, ok := p.cnames[name]; ok {
		rr.Data = &dnswire.CNAMERData{Target: target}
	}
	resp.Answers = append(resp.Answers, rr)
	if cs, ok, _ := ecsopt.FromMessage(q); ok {
		ecsopt.Attach(resp, p.echo(cs))
	}
	wire, err := resp.Pack()
	if err != nil {
		return nil, 0, err
	}
	if err := dnswire.UnpackInto(into, wire); err != nil {
		return nil, 0, err
	}
	if p.hold != nil {
		p.held <- struct{}{}
		<-p.hold
	}
	return into, 0, nil
}

// TestResolutionsKeepNoPooledRecords: a resolution's upstream answers are
// decoded into a pooled workspace, which the cache reads on loan and the
// next resolution decodes over, and their owner names are views of the
// hop's question there, which the next resolution rewrites; so neither a
// cached entry nor a client reply may point into it. Each row resolves
// an answer the way one path takes it — a two- and a three-hop CNAME
// chain, a scope-0 answer the profile does not cache, an answer the
// cache rejects, a coalesced waiter's on an answer cached and on one not
// cached — and then misses on other names, whose different answers are
// decoded into the workspace the row's resolution used. The row's
// replies and cached entries must read as they did, names and all.
func TestResolutionsKeepNoPooledRecords(t *testing.T) {
	www, mid, edge := dnswire.Name("www."+retentionZone), dnswire.Name("mid."+cdnZone), dnswire.Name("edge."+cdnZone)
	base := netip.MustParseAddr("192.0.2.10")
	other := func(i int) dnswire.Name { return dnswire.Name(fmt.Sprintf("o%d.%s", i, retentionZone)) }
	client := netip.MustParseAddr("198.51.100.7")

	for _, row := range []struct {
		name    string
		profile func() Profile
		echo    func(ecsopt.ClientSubnet) ecsopt.ClientSubnet
		// ask makes the row's queries, on the goroutine that runs the
		// misses after them, and returns their replies.
		ask func(r *Resolver, p *decodingPool) []*dnswire.Message
		// cached is what the cache must hold for www afterwards, nil
		// for nothing.
		cached []string
		// check asserts the row went the path it is about.
		check func(t *testing.T, st ecscache.CacheStats)
	}{
		{
			name: "two-hop CNAME chain", profile: GoogleLikeProfile, echo: atScope(24),
			cached: []string{string(www) + " CNAME " + string(edge), string(edge) + " A " + base.String()},
			ask: func(r *Resolver, p *decodingPool) []*dnswire.Message {
				p.cnames[www], p.addrs[edge] = edge, base
				return []*dnswire.Message{retentionAsk(r, client, www)}
			},
			check: func(t *testing.T, st ecscache.CacheStats) {
				if st.Live != 1 {
					t.Errorf("the chain left %d entries, want 1", st.Live)
				}
			},
		},
		{
			// Each hop's CNAME payload is decoded over the one before.
			name: "three-hop CNAME chain", profile: GoogleLikeProfile, echo: atScope(24),
			cached: []string{string(www) + " CNAME " + string(mid), string(mid) + " CNAME " + string(edge), string(edge) + " A " + base.String()},
			ask: func(r *Resolver, p *decodingPool) []*dnswire.Message {
				p.cnames[www], p.cnames[mid], p.addrs[edge] = mid, edge, base
				return []*dnswire.Message{retentionAsk(r, client, www)}
			},
			check: func(t *testing.T, st ecscache.CacheStats) {
				if st.Live != 1 {
					t.Errorf("the chain left %d entries, want 1", st.Live)
				}
			},
		},
		{
			name: "scope 0 under NoCacheScopeZero", echo: atScope(0),
			profile: func() Profile { p := GoogleLikeProfile(); p.NoCacheScopeZero = true; return p },
			ask: func(r *Resolver, p *decodingPool) []*dnswire.Message {
				p.addrs[www] = base
				return []*dnswire.Message{retentionAsk(r, client, www)}
			},
			check: func(t *testing.T, st ecscache.CacheStats) {
				if st.HighWater != 0 {
					t.Errorf("%d answers cached, want none", st.HighWater)
				}
			},
		},
		{
			// An IPv6 option at scope 40 answering an IPv4 /32, which the
			// profile does not clamp: no IPv4 prefix is 40 bits long.
			name: "rejected insert", profile: FullPrefixProfile,
			echo: func(ecsopt.ClientSubnet) ecsopt.ClientSubnet {
				return ecsopt.MustNew(netip.MustParseAddr("2001:db8::"), 48).WithScope(40)
			},
			ask: func(r *Resolver, p *decodingPool) []*dnswire.Message {
				p.addrs[www] = base
				return []*dnswire.Message{retentionAsk(r, client, www)}
			},
			check: func(t *testing.T, st ecscache.CacheStats) {
				if st.Rejected != 1 {
					t.Errorf("%d inserts rejected, want the scope-40 answer's", st.Rejected)
				}
			},
		},
		{
			name: "coalesced waiter", profile: GoogleLikeProfile, echo: atScope(24),
			cached: []string{string(www) + " A " + base.String()},
			ask:    coalesced(client, www, base),
			check: func(t *testing.T, st ecscache.CacheStats) {
				if st.Coalesced != 1 {
					t.Errorf("%d resolutions coalesced, want the waiter's", st.Coalesced)
				}
			},
		},
		{
			// The waiter reads the leader's copy of records the cache
			// did not take, after the leader's workspace has gone back.
			name: "coalesced waiter, not cached", echo: atScope(0),
			profile: func() Profile { p := GoogleLikeProfile(); p.NoCacheScopeZero = true; return p },
			ask:     coalesced(client, www, base),
			check: func(t *testing.T, st ecscache.CacheStats) {
				if st.Coalesced != 1 || st.HighWater != 0 {
					t.Errorf("%d resolutions coalesced and %d answers cached, want the waiter's and none", st.Coalesced, st.HighWater)
				}
			},
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			p := &decodingPool{addrs: map[dnswire.Name]netip.Addr{}, cnames: map[dnswire.Name]dnswire.Name{}, echo: row.echo}
			for i := 0; i < 4; i++ {
				p.addrs[other(i)] = netip.AddrFrom4([4]byte{203, 0, 113, byte(i)})
			}
			dir := NewDirectory()
			dir.Add(retentionZone, netip.MustParseAddr("203.0.113.53"))
			dir.Add(cdnZone, netip.MustParseAddr("203.0.113.54"))
			clk := netem.NewClock(netem.SimStart)
			r := New(Config{Addr: netip.MustParseAddr("198.51.100.53"), Pool: p, Now: clk.Now, Directory: dir, Profile: row.profile(), Seed: 1})

			replies := row.ask(r, p)
			want := make([]string, len(replies))
			for i, reply := range replies {
				if want[i] = retentionRecords(reply.Answers); !strings.Contains(want[i], " A "+base.String()) || !strings.HasPrefix(want[i], string(www)+" ") {
					t.Fatalf("reply %d answers %s, want %s's address", i, want[i], base)
				}
			}
			row.check(t, r.Cache().Stats())
			for i := 0; i < 4; i++ {
				retentionAsk(r, client, other(i))
			}
			for i, reply := range replies {
				if got := retentionRecords(reply.Answers); got != want[i] {
					t.Errorf("reply %d answered %s, and after later misses reads %s", i, want[i], got)
				}
			}
			e, ok := r.Cache().Lookup(ecscache.Key{Name: www, Type: dnswire.TypeA, Class: dnswire.ClassINET}, client, clk.Now())
			switch {
			case row.cached == nil && ok:
				t.Errorf("%s cached as %s, want not cached", www, retentionRecords(e.Answer))
			case row.cached != nil && !ok:
				t.Errorf("%s not cached", www)
			case ok:
				if got, want := retentionRecords(e.Answer), strings.Join(row.cached, ", "); got != want {
					t.Errorf("%s cached as %s, want %s", www, got, want)
				}
			}
		})
	}
}

// coalesced asks for name twice at once, for the same client: the
// leader's answer is decoded and held upstream until the second query,
// the waiter, is parked on the leader's flight. It returns both replies.
func coalesced(client netip.Addr, name dnswire.Name, addr netip.Addr) func(r *Resolver, p *decodingPool) []*dnswire.Message {
	return func(r *Resolver, p *decodingPool) []*dnswire.Message {
		p.addrs[name] = addr
		p.hold, p.held = make(chan struct{}), make(chan struct{})
		var waiter *dnswire.Message
		asked := make(chan struct{})
		go func() {
			defer close(asked)
			<-p.held // the leader's answer is decoded and held
			waiter = retentionAsk(r, client, name)
		}()
		go func() {
			for r.Cache().Stats().Coalesced == 0 {
				runtime.Gosched()
			}
			close(p.hold) // the waiter is parked on the leader's flight
		}()
		leader := retentionAsk(r, client, name)
		<-asked
		p.hold = nil
		return []*dnswire.Message{leader, waiter}
	}
}

// retentionAsk resolves name of type A for client through r.
func retentionAsk(r *Resolver, client netip.Addr, name dnswire.Name) *dnswire.Message {
	q := dnswire.NewQuery(7, name, dnswire.TypeA)
	q.EDNS = dnswire.NewEDNS()
	return r.HandleDNS(client, q)
}

// retentionRecords is rrs as one line, owner, type and payload only:
// the TTLs a reply serves move with the clock.
func retentionRecords(rrs []dnswire.RR) string {
	var b strings.Builder
	for i, rr := range rrs {
		if i > 0 {
			b.WriteString(", ")
		}
		switch d := rr.Data.(type) {
		case *dnswire.ARData:
			fmt.Fprintf(&b, "%s A %s", rr.Name, d.Addr)
		case *dnswire.CNAMERData:
			fmt.Fprintf(&b, "%s CNAME %s", rr.Name, d.Target)
		default:
			fmt.Fprintf(&b, "%v", rr)
		}
	}
	return b.String()
}
