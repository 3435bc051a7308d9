package geo

import (
	"math"
	"math/rand"
	"net/netip"
	"testing"
)

func TestBuildDeterministic(t *testing.T) {
	a := Build(Config{Seed: 42, NumASes: 20, BlocksPerAS: 2})
	b := Build(Config{Seed: 42, NumASes: 20, BlocksPerAS: 2})
	if a.NumASes() != 20 || b.NumASes() != 20 {
		t.Fatalf("NumASes = %d/%d", a.NumASes(), b.NumASes())
	}
	for i := 0; i < 20; i++ {
		x, y := a.ASByIndex(i), b.ASByIndex(i)
		if x.Name != y.Name || x.Country != y.Country || len(x.Blocks) != len(y.Blocks) {
			t.Fatalf("AS %d differs between identical builds", i)
		}
		for j := range x.Blocks {
			if x.Blocks[j] != y.Blocks[j] {
				t.Fatalf("AS %d block %d differs", i, j)
			}
			for s := 0; s < 256; s++ {
				addr := netip.AddrFrom4([4]byte{byte(x.Blocks[j] >> 8), byte(x.Blocks[j]), byte(s), 1})
				ca, _ := a.cityIndexOf(addr)
				cb, _ := b.cityIndexOf(addr)
				if ca != cb {
					t.Fatalf("AS %d: %s is in city %d in one build and %d in the other", i, addr, ca, cb)
				}
			}
		}
	}
}

func TestBuildDifferentSeedsDiffer(t *testing.T) {
	// The incumbent ASes (one per country) are seed-independent by
	// design; the randomized tail beyond them must differ across seeds.
	a := Build(Config{Seed: 1, NumASes: 120, BlocksPerAS: 1})
	b := Build(Config{Seed: 2, NumASes: 120, BlocksPerAS: 1})
	same := 0
	for i := 60; i < 120; i++ {
		if a.ASByIndex(i).Country == b.ASByIndex(i).Country {
			same++
		}
	}
	if same == 60 {
		t.Fatal("different seeds produced identical AS countries")
	}
}

func TestBlocksAvoidReservedSpace(t *testing.T) {
	w := Build(Config{Seed: 3, NumASes: 200, BlocksPerAS: 3})
	for i := 0; i < w.NumASes(); i++ {
		for _, blk := range w.ASByIndex(i).Blocks {
			hi := blk >> 8
			if isReservedHi(hi) {
				t.Fatalf("AS %d owns reserved block %d.x", i, hi)
			}
		}
	}
}

func TestLocateRoundTrip(t *testing.T) {
	w := Build(Config{Seed: 4, NumASes: 50, BlocksPerAS: 2})
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		addr := w.RandomClient(rng)
		loc, ok := w.Locate(addr)
		if !ok {
			t.Fatalf("RandomClient produced unlocatable address %s", addr)
		}
		as, ok := w.ASOf(addr)
		if !ok {
			t.Fatalf("RandomClient produced AS-less address %s", addr)
		}
		// The city must be one of the AS's cities.
		found := false
		for _, ci := range as.CityIdx {
			if Cities[ci].Name == loc.City {
				found = true
			}
		}
		if !found {
			t.Fatalf("address %s located in %s, not among its AS's cities", addr, loc.City)
		}
	}
}

func TestLocateSame24SameCity(t *testing.T) {
	w := Build(Config{Seed: 5, NumASes: 50, BlocksPerAS: 2})
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 200; i++ {
		addr := w.RandomClient(rng)
		a4 := addr.As4()
		sibling := netip.AddrFrom4([4]byte{a4[0], a4[1], a4[2], a4[3] ^ 0x55})
		l1, ok1 := w.Locate(addr)
		l2, ok2 := w.Locate(sibling)
		if !ok1 || !ok2 || l1 != l2 {
			t.Fatalf("same /24 located differently: %s=%v %s=%v", addr, l1, sibling, l2)
		}
	}
}

func TestLocateOutsidePlan(t *testing.T) {
	w := Build(Config{Seed: 6, NumASes: 10, BlocksPerAS: 1})
	for _, s := range []string{"127.0.0.1", "10.1.2.3", "192.168.0.1", "169.254.252.1", "224.0.0.1"} {
		if _, ok := w.Locate(netip.MustParseAddr(s)); ok {
			t.Errorf("reserved address %s located", s)
		}
		if _, ok := w.ASOf(netip.MustParseAddr(s)); ok {
			t.Errorf("reserved address %s has an AS", s)
		}
	}
}

func TestIPv6Clients(t *testing.T) {
	w := Build(Config{Seed: 7, NumASes: 40, BlocksPerAS: 1})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		addr := w.RandomClientV6(rng)
		if !addr.Is6() || addr.Is4In6() {
			t.Fatalf("RandomClientV6 returned %s", addr)
		}
		if _, ok := w.Locate(addr); !ok {
			t.Fatalf("IPv6 client %s unlocatable", addr)
		}
		// Same /48 must locate identically.
		a := addr.As16()
		a[15] ^= 0x3C
		a[8] ^= 0xFF // below /48 boundary
		sibling := netip.AddrFrom16(a)
		l1, _ := w.Locate(addr)
		l2, ok := w.Locate(sibling)
		if !ok || l1 != l2 {
			t.Fatalf("same /48 located differently: %v vs %v", l1, l2)
		}
	}
}

func TestAddrInCityDeterministic(t *testing.T) {
	w := Build(Config{Seed: 8, NumASes: 60, BlocksPerAS: 2})
	ci := CityIndex("Chicago")
	if ci < 0 {
		t.Fatal("Chicago missing from catalog")
	}
	a := w.AddrInCity(ci, 0, 0)
	b := w.AddrInCity(ci, 0, 0)
	if a != b {
		t.Fatal("AddrInCity not deterministic")
	}
	c := w.AddrInCity(ci, 1, 0)
	if len(w.subnetsInCity(ci)) > 1 && a == c {
		t.Fatal("different salts produced same subnet")
	}
	loc, ok := w.Locate(a)
	if !ok || loc.City != "Chicago" {
		t.Fatalf("AddrInCity(Chicago) located at %v", loc)
	}
}

func TestDistanceKm(t *testing.T) {
	ny := Location{Lat: 40.71, Lon: -74.01}
	london := Location{Lat: 51.51, Lon: -0.13}
	d := DistanceKm(ny, london)
	if d < 5400 || d > 5700 {
		t.Errorf("NY–London = %.0f km, want ≈5570", d)
	}
	if DistanceKm(ny, ny) != 0 {
		t.Error("zero distance to self")
	}
	// Symmetry.
	if math.Abs(DistanceKm(ny, london)-DistanceKm(london, ny)) > 1e-9 {
		t.Error("distance not symmetric")
	}
	// Antipodal-ish sanity: nothing exceeds half the circumference.
	syd := Location{Lat: -33.87, Lon: 151.21}
	if d := DistanceKm(london, syd); d > earthHalfTurnKm+10 {
		t.Errorf("London–Sydney = %.0f km exceeds half circumference", d)
	}
}

func TestRTTModelScale(t *testing.T) {
	cle := cityLocation(CityIndex("Cleveland"))
	chi := cityLocation(CityIndex("Chicago"))
	jnb := cityLocation(CityIndex("Johannesburg"))
	zrh := cityLocation(CityIndex("Zurich"))
	rttChi := RTTMillis(cle, chi)
	rttJnb := RTTMillis(cle, jnb)
	rttZrh := RTTMillis(cle, zrh)
	if rttChi < 15 || rttChi > 50 {
		t.Errorf("Cleveland–Chicago RTT = %.0f ms, want Table 2 scale (~35)", rttChi)
	}
	if rttZrh < 120 || rttZrh > 200 {
		t.Errorf("Cleveland–Zurich RTT = %.0f ms, want ~155", rttZrh)
	}
	if rttJnb < 230 || rttJnb > 330 {
		t.Errorf("Cleveland–Johannesburg RTT = %.0f ms, want ~285", rttJnb)
	}
	if !(rttChi < rttZrh && rttZrh < rttJnb) {
		t.Error("RTT ordering violated")
	}
}

func TestCityHelpers(t *testing.T) {
	if CityIndex("Nowhere") != -1 {
		t.Error("CityIndex for unknown city must be -1")
	}
	cn := CitiesInCountry("CN")
	if len(cn) < 3 {
		t.Errorf("expected ≥3 Chinese cities, got %d", len(cn))
	}
	for _, i := range cn {
		if Cities[i].Country != "CN" {
			t.Errorf("CitiesInCountry returned %s", Cities[i].Name)
		}
	}
	if len(CitiesInCountry("XX")) != 0 {
		t.Error("unknown country must have no cities")
	}
}

func TestRandomClientWeighting(t *testing.T) {
	w := Build(Config{Seed: 12, NumASes: 300, BlocksPerAS: 2})
	rng := rand.New(rand.NewSource(13))
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		addr := w.RandomClient(rng)
		loc, _ := w.Locate(addr)
		counts[loc.City]++
	}
	// Tokyo (weight 37) should be sampled far more than Mountain View
	// (weight 1), provided both are covered by some AS.
	if counts["Tokyo"] > 0 && counts["Mountain View"] > 0 &&
		counts["Tokyo"] < counts["Mountain View"] {
		t.Errorf("weighting inverted: Tokyo=%d MountainView=%d",
			counts["Tokyo"], counts["Mountain View"])
	}
}
