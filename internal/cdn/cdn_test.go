package cdn

import (
	"math/rand"
	"net/netip"
	"testing"

	"ecsdns/internal/ecsopt"
	"ecsdns/internal/geo"
)

func testWorld() *geo.Internet {
	return geo.Build(geo.Config{Seed: 1, NumASes: 120, BlocksPerAS: 1})
}

func ecsFor(w *geo.Internet, city string, bits int) ecsopt.ClientSubnet {
	addr := w.AddrInCity(geo.CityIndex(city), 0, 7)
	return ecsopt.MustNew(addr, bits)
}

func TestDeployPlacesLocatableEdges(t *testing.T) {
	w := testWorld()
	d := DeployGlobal(w, "t", 2, 1)
	if len(d.Edges()) != 2*len(geo.Cities) {
		t.Fatalf("edges = %d", len(d.Edges()))
	}
	for _, e := range d.Edges() {
		loc, ok := w.Locate(e.Addr)
		if !ok {
			t.Fatalf("edge %s unlocatable", e.Addr)
		}
		if loc.City != geo.Cities[e.CityIdx].Name {
			t.Fatalf("edge %s located in %s, placed in %s", e.Addr, loc.City, geo.Cities[e.CityIdx].Name)
		}
	}
}

func TestDeployDeduplicatesCities(t *testing.T) {
	w := testWorld()
	ci := geo.CityIndex("Chicago")
	d := Deploy(w, "t", []int{ci, ci, ci}, 3, 1)
	if len(d.Edges()) != 3 {
		t.Fatalf("duplicate city deployed %d edges, want 3", len(d.Edges()))
	}
}

func TestNearestCity(t *testing.T) {
	w := testWorld()
	d := Deploy(w, "t", []int{geo.CityIndex("Chicago"), geo.CityIndex("Tokyo")}, 1, 1)
	cleveland := geo.LocationOfCity(geo.CityIndex("Cleveland"))
	if got := d.NearestCity(cleveland); got != geo.CityIndex("Chicago") {
		t.Fatalf("nearest to Cleveland = %s", geo.Cities[got].Name)
	}
	osaka := geo.LocationOfCity(geo.CityIndex("Osaka"))
	if got := d.NearestCity(osaka); got != geo.CityIndex("Tokyo") {
		t.Fatalf("nearest to Osaka = %s", geo.Cities[got].Name)
	}
}

func TestProximityMappingUsesECS(t *testing.T) {
	w := testWorld()
	p := NewGoogleLike(w)
	resolver := w.AddrInCity(geo.CityIndex("Mountain View"), 0, 3)

	// Client in Tokyo behind a Mountain View resolver: with ECS the edge
	// must be near Tokyo, without it near Mountain View.
	tokyoECS := ecsFor(w, "Tokyo", 24)
	withECS := p.Select(MapQuery{ECS: tokyoECS, HasECS: true, Resolver: resolver})
	if !withECS.UsedECS || len(withECS.Edges) == 0 {
		t.Fatalf("ECS not used: %+v", withECS)
	}
	tokyo := geo.LocationOfCity(geo.CityIndex("Tokyo"))
	if d := geo.DistanceKm(withECS.Edges[0].Loc, tokyo); d > 1500 {
		t.Fatalf("ECS answer %0.f km from Tokyo", d)
	}
	withoutECS := p.Select(MapQuery{Resolver: resolver})
	if withoutECS.UsedECS {
		t.Fatal("UsedECS without option")
	}
	mv := geo.LocationOfCity(geo.CityIndex("Mountain View"))
	if d := geo.DistanceKm(withoutECS.Edges[0].Loc, mv); d > 1500 {
		t.Fatalf("resolver-based answer %.0f km from Mountain View", d)
	}
}

func TestScopeEchoAndCap(t *testing.T) {
	w := testWorld()
	p := NewGoogleLike(w)
	r := p.Select(MapQuery{ECS: ecsFor(w, "Tokyo", 24), HasECS: true})
	if r.Scope != 24 {
		t.Fatalf("scope = %d, want 24", r.Scope)
	}
	// /32 source is capped to the recommended /24.
	r = p.Select(MapQuery{ECS: ecsFor(w, "Tokyo", 32), HasECS: true})
	if r.Scope != 24 {
		t.Fatalf("scope for /32 source = %d, want 24", r.Scope)
	}
	// /16 source echoes 16 under Google-like (min prefix 1).
	r = p.Select(MapQuery{ECS: ecsFor(w, "Tokyo", 16), HasECS: true})
	if r.Scope != 16 {
		t.Fatalf("scope for /16 source = %d, want 16", r.Scope)
	}
}

func TestCDN1ThresholdAt24(t *testing.T) {
	w := testWorld()
	p := NewCDN1(w)
	resolver := w.AddrInCity(geo.CityIndex("Cleveland"), 0, 3)
	tokyo := geo.LocationOfCity(geo.CityIndex("Tokyo"))

	r24 := p.Select(MapQuery{ECS: ecsFor(w, "Tokyo", 24), HasECS: true, Resolver: resolver})
	if !r24.UsedECS {
		t.Fatal("/24 must use ECS")
	}
	if d := geo.DistanceKm(r24.Edges[0].Loc, tokyo); d > 1500 {
		t.Fatalf("/24 answer %.0f km from Tokyo", d)
	}
	r23 := p.Select(MapQuery{ECS: ecsFor(w, "Tokyo", 23), HasECS: true, Resolver: resolver})
	if r23.UsedECS {
		t.Fatal("/23 must not use ECS under CDN-1")
	}
	// The /23 fallback is a central pick, not proximity: collect unique
	// answers for many client cities — there must be only a few.
	unique := map[netip.Addr]bool{}
	for ci := range geo.Cities {
		addr := w.AddrInCity(ci, 0, 9)
		cs := ecsopt.MustNew(addr, 23)
		r := p.Select(MapQuery{ECS: cs, HasECS: true, Resolver: resolver})
		unique[r.Edges[0].Addr] = true
	}
	if len(unique) > p.CentralCount {
		t.Fatalf("central fallback produced %d unique edges, want ≤ %d", len(unique), p.CentralCount)
	}
}

func TestCDN2ThresholdAt21(t *testing.T) {
	w := testWorld()
	p := NewCDN2(w)
	resolver := w.AddrInCity(geo.CityIndex("Cleveland"), 0, 3)
	tokyo := geo.LocationOfCity(geo.CityIndex("Tokyo"))

	r21 := p.Select(MapQuery{ECS: ecsFor(w, "Tokyo", 21), HasECS: true, Resolver: resolver})
	if !r21.UsedECS {
		t.Fatal("/21 must use ECS under CDN-2")
	}
	if d := geo.DistanceKm(r21.Edges[0].Loc, tokyo); d > 1500 {
		t.Fatalf("/21 answer %.0f km from Tokyo", d)
	}
	if r21.Scope != 21 {
		t.Fatalf("scope = %d, want 21", r21.Scope)
	}
	r20 := p.Select(MapQuery{ECS: ecsFor(w, "Tokyo", 20), HasECS: true, Resolver: resolver})
	if r20.UsedECS {
		t.Fatal("/20 must fall back under CDN-2")
	}
	// Fallback is resolver proximity: near Cleveland, not Tokyo.
	cle := geo.LocationOfCity(geo.CityIndex("Cleveland"))
	if dNear, dFar := geo.DistanceKm(r20.Edges[0].Loc, cle), geo.DistanceKm(r20.Edges[0].Loc, tokyo); dNear > dFar {
		t.Fatalf("fallback edge closer to Tokyo (%.0f) than Cleveland (%.0f)", dFar, dNear)
	}
}

func TestGoogleLikeUnroutablePrefixes(t *testing.T) {
	w := testWorld()
	p := NewGoogleLike(w)
	resolver := w.AddrInCity(geo.CityIndex("Cleveland"), 0, 3)
	cle := geo.LocationOfCity(geo.CityIndex("Cleveland"))

	baseline := p.Select(MapQuery{Resolver: resolver})
	if d := geo.DistanceKm(baseline.Edges[0].Loc, cle); d > 1000 {
		t.Fatalf("baseline answer %.0f km from Cleveland", d)
	}
	seen := map[netip.Addr]bool{}
	for _, e := range baseline.Edges {
		seen[e.Addr] = true
	}
	for _, pfx := range []ecsopt.ClientSubnet{
		ecsopt.MustNew(netip.MustParseAddr("127.0.0.1"), 32),
		ecsopt.MustNew(netip.MustParseAddr("127.0.0.0"), 24),
		ecsopt.MustNew(netip.MustParseAddr("169.254.252.0"), 24),
	} {
		r := p.Select(MapQuery{ECS: pfx, HasECS: true, Resolver: resolver})
		if !r.UsedECS {
			t.Fatalf("unroutable prefix %s ignored, want taken at face value", pfx)
		}
		overlap := false
		for _, e := range r.Edges {
			if seen[e.Addr] {
				overlap = true
			}
		}
		if overlap {
			t.Fatalf("unroutable prefix %s answer overlaps baseline set", pfx)
		}
	}
}

func TestRFCCompliantUnroutableHandling(t *testing.T) {
	// CDN-1/2 follow the SHOULD: unroutable prefixes map like the
	// resolver.
	w := testWorld()
	p := NewCDN2(w)
	resolver := w.AddrInCity(geo.CityIndex("Cleveland"), 0, 3)
	loopback := ecsopt.MustNew(netip.MustParseAddr("127.0.0.1"), 32)
	r := p.Select(MapQuery{ECS: loopback, HasECS: true, Resolver: resolver})
	if r.UsedECS {
		t.Fatal("compliant policy must ignore unroutable ECS")
	}
	cle := geo.LocationOfCity(geo.CityIndex("Cleveland"))
	if d := geo.DistanceKm(r.Edges[0].Loc, cle); d > 1000 {
		t.Fatalf("answer %.0f km from Cleveland", d)
	}
}

func TestSelectDeterministic(t *testing.T) {
	w := testWorld()
	p := NewGoogleLike(w)
	q := MapQuery{ECS: ecsFor(w, "Paris", 24), HasECS: true, Resolver: w.AddrInCity(0, 0, 1)}
	a := p.Select(q)
	b := p.Select(q)
	if len(a.Edges) != len(b.Edges) {
		t.Fatal("nondeterministic edge count")
	}
	for i := range a.Edges {
		if a.Edges[i].Addr != b.Edges[i].Addr {
			t.Fatal("nondeterministic selection")
		}
	}
}

func TestIPv6ECSMapping(t *testing.T) {
	w := testWorld()
	p := NewGoogleLike(w)
	// Find an IPv6 client; derive /56 ECS.
	v6 := w.RandomClientV6(newRand())
	cs := ecsopt.MustNew(v6, 56)
	r := p.Select(MapQuery{ECS: cs, HasECS: true})
	if !r.UsedECS || len(r.Edges) == 0 {
		t.Fatalf("IPv6 ECS not used: %+v", r)
	}
	loc, _ := w.Locate(v6)
	if d := geo.DistanceKm(r.Edges[0].Loc, geo.Location{Lat: loc.Lat, Lon: loc.Lon}); d > 2500 {
		t.Fatalf("IPv6 answer %.0f km from client", d)
	}
	// The Google-like policy answers IPv6 at twice its IPv4 scope cap.
	if r.Scope != 48 {
		t.Fatalf("IPv6 scope = %d, want 48", r.Scope)
	}
}

func newRand() *rand.Rand { return rand.New(rand.NewSource(5)) }

// Edges returns all edges in the deployment; only tests read them whole.
func (d *Deployment) Edges() []Edge { return d.edges }
