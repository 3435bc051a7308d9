package hiddensim

import (
	"math"
	"testing"

	"ecsdns/internal/geo"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := MPConfig()
	cfg.Combos = 2000
	a := Generate(cfg)
	b := Generate(cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("combo %d differs between identical runs", i)
		}
	}
}

func TestGenerateDistancesConsistent(t *testing.T) {
	cfg := MPConfig()
	cfg.Combos = 3000
	for _, c := range Generate(cfg) {
		f := geo.LocationOfCity(c.ForwarderCity)
		h := geo.LocationOfCity(c.HiddenCity)
		e := geo.LocationOfCity(c.EgressCity)
		if math.Abs(c.FH-geo.DistanceKm(f, h)) > 1e-6 {
			t.Fatalf("FH inconsistent for %+v", c)
		}
		if math.Abs(c.FR-geo.DistanceKm(f, e)) > 1e-6 {
			t.Fatalf("FR inconsistent for %+v", c)
		}
	}
}

func TestMPFractionsMatchPaper(t *testing.T) {
	// Paper (Figure 4): 8% below, 1.3% on, 90.7% above the diagonal.
	f := Analyze(Generate(MPConfig()))
	if f.Below < 0.05 || f.Below > 0.11 {
		t.Errorf("MP below = %.3f, paper reports 0.080", f.Below)
	}
	if f.On > 0.05 {
		t.Errorf("MP on = %.3f, paper reports 0.013", f.On)
	}
	if f.Above < 0.85 {
		t.Errorf("MP above = %.3f, paper reports 0.907", f.Above)
	}
	if s := f.Below + f.On + f.Above; math.Abs(s-1) > 1e-9 {
		t.Errorf("fractions sum to %v", s)
	}
}

func TestNonMPFractionsMatchPaper(t *testing.T) {
	// Paper (Figure 5): 7.8% below, 19.5% on, 72.7% above.
	f := Analyze(Generate(NonMPConfig()))
	if f.Below < 0.05 || f.Below > 0.11 {
		t.Errorf("non-MP below = %.3f, paper reports 0.078", f.Below)
	}
	if f.On < 0.14 || f.On > 0.26 {
		t.Errorf("non-MP on = %.3f, paper reports 0.195", f.On)
	}
	if f.Above < 0.64 || f.Above > 0.80 {
		t.Errorf("non-MP above = %.3f, paper reports 0.727", f.Above)
	}
}

func TestNonMPChinaStructure(t *testing.T) {
	// The non-MP population must show the ~1000–2000 km Chinese
	// inter-city modes the paper describes.
	combos := Generate(NonMPConfig())
	inBand := 0
	for _, c := range combos {
		if c.FH > 900 && c.FH < 2200 {
			inBand++
		}
	}
	if float64(inBand)/float64(len(combos)) < 0.05 {
		t.Errorf("only %d/%d combos in the 1000–2000 km band", inBand, len(combos))
	}
	// Every egress is one of the big-3 farm cities.
	big3 := map[int]bool{
		geo.CityIndex("Beijing"):   true,
		geo.CityIndex("Shanghai"):  true,
		geo.CityIndex("Guangzhou"): true,
	}
	for _, c := range combos {
		if !big3[c.EgressCity] {
			t.Fatalf("egress outside the big-3: %s", geo.Cities[c.EgressCity].Name)
		}
	}
}

func TestAnalyzeEdgeCases(t *testing.T) {
	if f := Analyze(nil); f != (Fractions{}) {
		t.Fatalf("empty analysis = %+v", f)
	}
	combos := []Combo{
		{FH: 100, FR: 200}, // above
		{FH: 200, FR: 100}, // below
		{FH: 50, FR: 50.5}, // on (within epsilon)
	}
	f := Analyze(combos)
	if f.Below == 0 || f.On == 0 || f.Above == 0 {
		t.Fatalf("decomposition wrong: %+v", f)
	}
}

func TestHexbinOf(t *testing.T) {
	combos := Generate(Config{
		Seed: 1, Combos: 1000,
		HubCities:            []int{geo.CityIndex("Frankfurt")},
		PHiddenSameCity:      0.5,
		PHiddenRegional:      0.3,
		PEgressNearForwarder: 1,
	})
	h := HexbinOf(combos, 500)
	total := 0
	for _, n := range h.Counts {
		total += n
	}
	if total != 1000 {
		t.Fatalf("hexbin total = %d", total)
	}
}

func TestWorstPenaltyFindsPathology(t *testing.T) {
	combos := Generate(MPConfig())
	worst := WorstPenalty(combos)
	// The paper's worst case is a Santiago forwarder+egress with an
	// Italian hidden resolver, 12000 km away. Our tail must contain
	// multi-thousand-km pathologies too.
	if worst.FH-worst.FR < 3000 {
		t.Errorf("worst ECS penalty only %.0f km (FH=%.0f FR=%.0f)",
			worst.FH-worst.FR, worst.FH, worst.FR)
	}
}
