package mapping

import (
	"testing"

	"ecsdns/internal/cdn"
	"ecsdns/internal/geo"
	"ecsdns/internal/stats"
)

func world() *geo.Internet {
	return geo.Build(geo.Config{Seed: 9, NumASes: 200, BlocksPerAS: 2})
}

func TestFleetSpreadAndDeterminism(t *testing.T) {
	w := world()
	f := NewFleet(w, 400, 1)
	if len(f.Addrs) != 400 {
		t.Fatalf("fleet size = %d", len(f.Addrs))
	}
	countries := map[string]bool{}
	for _, a := range f.Addrs {
		loc, ok := w.Locate(a)
		if !ok {
			t.Fatalf("probe %s unlocatable", a)
		}
		countries[loc.Country] = true
	}
	if len(countries) < 15 {
		t.Fatalf("fleet covers only %d countries", len(countries))
	}
	g := NewFleet(w, 400, 1)
	for i := range f.Addrs {
		if f.Addrs[i] != g.Addrs[i] {
			t.Fatal("fleet not deterministic")
		}
	}
}

func TestCDN1SweepShapeMatchesFigure6(t *testing.T) {
	w := world()
	policy := cdn.NewCDN1(w)
	fleet := NewFleet(w, 400, 2)
	lab := w.AddrInCity(geo.CityIndex("Cleveland"), 0, 3)
	pts := PrefixSweep(w, policy, fleet, lab, []int{16, 20, 23, 24})
	byLen := map[int]SweepPoint{}
	for _, p := range pts {
		byLen[p.PrefixLen] = p
	}
	// /24: many unique answers (proximity mapping); the paper saw 400
	// unique for 800 probes.
	if byLen[24].UniqueFirstAnswers < 20 {
		t.Fatalf("/24 unique answers = %d, want many", byLen[24].UniqueFirstAnswers)
	}
	// Shorter prefixes collapse to the small central set (5–14 in the
	// paper).
	for _, l := range []int{16, 20, 23} {
		if byLen[l].UniqueFirstAnswers > 14 {
			t.Fatalf("/%d unique answers = %d, want ≤ 14", l, byLen[l].UniqueFirstAnswers)
		}
	}
	// The latency cliff: median connect time at /24 must be far below
	// /23, and /23 ≈ /16 (shortening further has no effect).
	med24 := stats.Median(byLen[24].ConnectMs)
	med23 := stats.Median(byLen[23].ConnectMs)
	med16 := stats.Median(byLen[16].ConnectMs)
	if med24*1.5 > med23 {
		t.Fatalf("no cliff between /24 (%.0f ms) and /23 (%.0f ms)", med24, med23)
	}
	if diff := med23 - med16; diff > 15 && diff < -15 {
		t.Fatalf("/23 (%.0f) and /16 (%.0f) should be comparable", med23, med16)
	}
}

func TestCDN2SweepShapeMatchesFigure7(t *testing.T) {
	w := world()
	policy := cdn.NewCDN2(w)
	fleet := NewFleet(w, 400, 3)
	lab := w.AddrInCity(geo.CityIndex("Cleveland"), 0, 3)
	pts := PrefixSweep(w, policy, fleet, lab, []int{16, 20, 21, 24})
	byLen := map[int]SweepPoint{}
	for _, p := range pts {
		byLen[p.PrefixLen] = p
	}
	// /20 and /16 collapse to a single resolver-proximal answer with
	// scope 0.
	for _, l := range []int{16, 20} {
		if byLen[l].UniqueFirstAnswers != 1 {
			t.Fatalf("/%d unique answers = %d, want 1", l, byLen[l].UniqueFirstAnswers)
		}
		if byLen[l].ZeroScopeAnswers != len(byLen[l].ConnectMs) {
			t.Fatalf("/%d zero-scope answers = %d/%d", l, byLen[l].ZeroScopeAnswers, len(byLen[l].ConnectMs))
		}
	}
	// /21 and /24 map by proximity (the paper saw 41–42 answers).
	for _, l := range []int{21, 24} {
		if byLen[l].UniqueFirstAnswers < 20 {
			t.Fatalf("/%d unique answers = %d, want many", l, byLen[l].UniqueFirstAnswers)
		}
	}
	// /21 and /24 quality is the same; /20 is dramatically worse.
	med21 := stats.Median(byLen[21].ConnectMs)
	med24 := stats.Median(byLen[24].ConnectMs)
	med20 := stats.Median(byLen[20].ConnectMs)
	if med21 > med24*1.2+5 || med24 > med21*1.2+5 {
		t.Fatalf("/21 (%.0f ms) and /24 (%.0f ms) should match", med21, med24)
	}
	if med24*1.5 > med20 {
		t.Fatalf("no cliff between /21+ (%.0f ms) and /20 (%.0f ms)", med24, med20)
	}
}

func TestUnroutableTableMatchesTable2(t *testing.T) {
	w := world()
	policy := cdn.NewGoogleLike(w)
	lab := w.AddrInCity(geo.CityIndex("Cleveland"), 0, 3)
	rows := UnroutableTable(w, policy, lab)
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	byLabel := map[string]TableRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	none := byLabel["None"]
	own := byLabel["/24 of src addr"]
	// Baseline mappings are nearby (the paper: Chicago, 35 ms).
	if none.RTTMillis > 80 || own.RTTMillis > 80 {
		t.Fatalf("baseline RTTs too high: none=%.0f own=%.0f", none.RTTMillis, own.RTTMillis)
	}
	// Unroutable prefixes map far away (155 ms Switzerland, 285 ms South
	// Africa in the paper). At least two of the three must be much worse
	// than baseline, and all must differ from the baseline answer.
	far := 0
	for _, label := range []string{"127.0.0.1/32", "127.0.0.0/24", "169.254.252.0/24"} {
		r := byLabel[label]
		if r.FirstAnswer == none.FirstAnswer {
			t.Fatalf("%s returned the baseline answer", label)
		}
		if r.RTTMillis > none.RTTMillis*2 {
			far++
		}
	}
	if far < 2 {
		t.Fatalf("only %d unroutable probes mapped far away", far)
	}
}
