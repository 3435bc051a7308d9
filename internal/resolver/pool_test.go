package resolver

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"ecsdns/internal/authority"
	"ecsdns/internal/dnswire"
	"ecsdns/internal/geo"
	"ecsdns/internal/netem"
	"ecsdns/internal/upstreams"
)

// poolRig is a resolver whose upstream exchanges run through an
// upstreams.Pool over three authoritative mirrors of the same zone.
type poolRig struct {
	world   *geo.Internet
	net     *netem.Network
	mirrors []netip.Addr
	pool    *upstreams.Pool
	res     *Resolver
}

func newPoolRig(t *testing.T, poolCfg func(*upstreams.Config)) *poolRig {
	t.Helper()
	w := geo.Build(geo.Config{Seed: 3, NumASes: 120, BlocksPerAS: 1})
	n := netem.New(w)
	rg := &poolRig{world: w, net: n}

	cities := []string{"Frankfurt", "Chicago", "Tokyo"}
	for i, city := range cities {
		addr := w.AddrInCity(geo.CityIndex(city), 3, 53)
		auth := authority.NewServer(authority.Config{
			Addr:       addr,
			ECSEnabled: true,
			Scope:      authority.ScopeFixed(24),
			Now:        n.Clock().Now,
		})
		z := authority.NewZone("test.example.", 20)
		z.SetWildcard(dnswire.TypeA, &dnswire.ARData{Addr: netip.MustParseAddr("192.0.2.80")})
		z.MustAdd(dnswire.RR{Name: "test.example.", Data: &dnswire.NSRData{Host: "ns1.test.example."}})
		auth.AddZone(z)
		n.Register(addr, auth)
		rg.mirrors = append(rg.mirrors, addr)
		_ = i
	}

	cfg := upstreams.Config{
		Upstreams: []upstreams.Upstream{
			{Addr: rg.mirrors[0]}, {Addr: rg.mirrors[1]}, {Addr: rg.mirrors[2]},
		},
		Transport: n,
		Now:       n.Clock().Now,
	}
	if poolCfg != nil {
		poolCfg(&cfg)
	}
	pool, err := upstreams.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rg.pool = pool

	dir := NewDirectory()
	dir.Add("test.example.", rg.mirrors[0])
	resAddr := w.AddrInCity(geo.CityIndex("London"), 5, 53)
	rg.res = New(Config{
		Addr:      resAddr,
		Pool:      pool,
		Now:       n.Clock().Now,
		Directory: dir,
		Profile:   GoogleLikeProfile(),
		Seed:      1,
	})
	n.Register(resAddr, rg.res)
	return rg
}

func TestPoolResolverBasic(t *testing.T) {
	rg := newPoolRig(t, nil)
	c := rg.world.AddrInCity(geo.CityIndex("London"), 9, 10)
	q := dnswire.NewQuery(1, "a.test.example.", dnswire.TypeA)
	q.EDNS = dnswire.NewEDNS()
	resp, _, err := rg.net.Exchange(c, rg.res.Addr(), q)
	if err != nil || resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 {
		t.Fatalf("resolve through pool failed: resp=%v err=%v", resp, err)
	}
	cnt := rg.pool.Counters()
	if cnt.Issued != 1 || cnt.Won != 1 || cnt.Check() != nil {
		t.Fatalf("pool counters = %+v", cnt)
	}
}

func TestPoolResolverBlackoutFailover(t *testing.T) {
	rg := newPoolRig(t, nil)
	// Mirror 0 goes permanently dark.
	start := rg.net.Clock().Now()
	rg.net.SetNodeFaults(rg.mirrors[0], netem.FaultPlan{Blackouts: []netem.Window{
		{Start: start, End: start.Add(24 * time.Hour)},
	}}, 11)

	c := rg.world.AddrInCity(geo.CityIndex("London"), 9, 10)
	answered := 0
	const total = 100
	for i := 0; i < total; i++ {
		name := fmt.Sprintf("h%d.test.example.", i)
		q := dnswire.NewQuery(uint16(i+1), dnswire.MustParseName(name), dnswire.TypeA)
		q.EDNS = dnswire.NewEDNS()
		resp, _, err := rg.net.Exchange(c, rg.res.Addr(), q)
		if err == nil && resp.RCode == dnswire.RCodeNoError && len(resp.Answers) == 1 {
			answered++
		}
	}
	if answered < 99 {
		t.Fatalf("answered %d/%d with one mirror dark; want >= 99", answered, total)
	}
	cnt := rg.pool.Counters()
	if err := cnt.Check(); err != nil {
		t.Fatalf("%v: %+v", err, cnt)
	}
	if cnt.Failovers == 0 {
		t.Fatal("blackout produced no failovers")
	}
	// The breaker must have gated the dark mirror after its failure run.
	if cnt.BreakerTrips == 0 {
		t.Fatalf("dark mirror's breaker never tripped: %+v", cnt)
	}
}

func TestPoolResolverRetriesDefaultZero(t *testing.T) {
	rg := newPoolRig(t, nil)
	if got := rg.res.retries(); got != 0 {
		t.Fatalf("retries with pool = %d, want 0", got)
	}
	plain := New(Config{
		Addr:      netip.MustParseAddr("192.0.2.1"),
		Transport: rg.net,
		Now:       rg.net.Clock().Now,
		Directory: NewDirectory(),
		Profile:   GoogleLikeProfile(),
	})
	if got := plain.retries(); got != 2 {
		t.Fatalf("retries without pool = %d, want 2", got)
	}
}
