package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanMedianMinMax(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if Mean(xs) != 2.5 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Median(xs) != 2.5 {
		t.Errorf("Median = %v", Median(xs))
	}
	if Min(xs) != 1 || Max(xs) != 4 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if Mean(nil) != 0 || Median(nil) != 0 || Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty-slice results must be 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 50}, {0.5, 30}, {0.25, 20}, {0.125, 15},
		{-1, 10}, {2, 50},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almost(got, c.want, 1e-9) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("Quantile(nil) must be 0")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 1}, {99, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); !almost(got, tc.want, 1e-9) {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d", c.Len())
	}
	if got := c.Quantile(0.5); !almost(got, 2, 1e-9) {
		t.Errorf("Quantile(0.5) = %v", got)
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		for _, v := range raw {
			if math.IsNaN(v) {
				return true
			}
		}
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		c := NewCDF(raw)
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return c.At(lo) <= c.At(hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.N != 10 || s.MinV != 1 || s.MaxV != 10 {
		t.Fatalf("summary wrong: %+v", s)
	}
	if !almost(s.MeanV, 5.5, 1e-9) || !almost(s.MedianV, 5.5, 1e-9) {
		t.Fatalf("mean/median wrong: %+v", s)
	}
	if s.String() == "" {
		t.Error("String empty")
	}
	if Summarize(nil).N != 0 {
		t.Error("Summarize(nil) must be zero")
	}
}

func TestHexbin(t *testing.T) {
	h := NewHexbin(100)
	h.Add(50, 250)  // above diagonal
	h.Add(250, 50)  // below
	h.Add(250, 45)  // below
	h.Add(150, 150) // same bin on diagonal
	if h.Total() != 4 {
		t.Fatalf("Total = %d", h.Total())
	}
	if len(h.Counts) != 3 {
		t.Fatalf("bins = %d, want 3", len(h.Counts))
	}
}

func TestZipf(t *testing.T) {
	w := Zipf(100, 1.0)
	var sum float64
	for _, x := range w {
		sum += x
	}
	if !almost(sum, 1, 1e-9) {
		t.Fatalf("Zipf weights sum to %v", sum)
	}
	for i := 1; i < len(w); i++ {
		if w[i] > w[i-1] {
			t.Fatal("Zipf weights not decreasing")
		}
	}
	if w[0]/w[9] < 5 || w[0]/w[9] > 15 {
		t.Errorf("rank-1/rank-10 ratio = %v, want ~10", w[0]/w[9])
	}
}

func TestWeightedChoice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	weights := []float64{0.7, 0.2, 0.1}
	counts := make([]int, 3)
	for i := 0; i < 10000; i++ {
		counts[WeightedChoice(rng, weights)]++
	}
	if counts[0] < 6500 || counts[0] > 7500 {
		t.Errorf("heavy weight drawn %d/10000 times", counts[0])
	}
	if counts[2] > 1500 {
		t.Errorf("light weight drawn %d/10000 times", counts[2])
	}
}

func TestSamplerMatchesWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	weights := []float64{5, 3, 1, 1}
	s := NewSampler(weights)
	counts := make([]int, len(weights))
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.Draw(rng)]++
	}
	for i, w := range weights {
		want := w / 10 * n
		if math.Abs(float64(counts[i])-want) > n*0.01 {
			t.Errorf("index %d drawn %d times, want ~%.0f", i, counts[i], want)
		}
	}
}

// TestSeededDrawsReplay: the same seed draws the same sequence from
// every helper that takes an rng. Go seeds its global source at random,
// so a draw from it makes the two sequences differ.
func TestSeededDrawsReplay(t *testing.T) {
	weights := []float64{5, 3, 1, 1}
	s := NewSampler(weights)
	draw := func() []int {
		rng := rand.New(rand.NewSource(7))
		var out []int
		for i := 0; i < 200; i++ {
			out = append(out, s.Draw(rng), WeightedChoice(rng, weights))
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d: %d in one run, %d in the other", i, a[i], b[i])
		}
	}
}

func TestSamplerDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewSampler(nil)
	if s.Draw(rng) != 0 {
		t.Error("empty sampler must draw 0")
	}
	s = NewSampler([]float64{0, 0})
	got := s.Draw(rng)
	if got != 0 && got != 1 {
		t.Errorf("zero-weight sampler drew %d", got)
	}
	s = NewSampler([]float64{1})
	if s.Draw(rng) != 0 {
		t.Error("single-weight sampler must draw 0")
	}
}
