package stub

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1) // 1..100
	}
	for _, tc := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {0.999, 100}, {0.01, 1}} {
		if got := Percentile(s, tc.q); got != tc.want {
			t.Errorf("Percentile(1..100, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := Percentile([]float64{7}, 0.5); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("no samples must give NaN, not a number that looks measured")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd count: got %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even count: got %v", got)
	}
}

// The highest percentile a sample supports has at least ten samples
// beyond it.
func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{999, 0}, // 0.99 would leave 9 beyond
		{1000, 0.99},
		{9999, 0.99},
		{10000, 0.999},
		{100000, 0.9999},
		{100000000, 0.999999}, // capped
	} {
		if got := TailQuantile(tc.n); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("TailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// Spread must agree with Python's statistics.quantiles(v, n=4), which is
// what the driver uses; the expected values were computed with it.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	v := []float64{10, 12, 11, 15, 9, 14, 13, 10.5, 11.5, 12.5}
	if got, want := Spread(v), 0.24468085106382978; math.Abs(got-want) > 1e-12 {
		t.Errorf("Spread = %v, want %v", got, want)
	}
	if got, want := Spread([]float64{3, 1, 2}), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Spread of three = %v, want %v", got, want)
	}
	if got := Spread([]float64{4}); got != 0 {
		t.Errorf("Spread of one = %v, want 0", got)
	}
}
