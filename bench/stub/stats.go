package stub

import (
	"math"
	"sort"
)

// Percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule, so the value is always a sample that was measured.
func Percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// Median sorts a copy of v and returns its middle value (the mean of the
// two middle values for an even count).
func Median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// TailQuantile is the highest of 0.99, 0.999, 0.9999 ... (at most
// 0.999999) that still has at least ten samples beyond it, or 0 when
// even the 99th percentile has not: the choosing-metrics rule for the
// highest percentile a sample count supports.
func TailQuantile(n int) float64 {
	best := 0.0
	for nines := 2; nines <= 6; nines++ {
		q := 1 - math.Pow(10, -float64(nines))
		beyond := n - int(math.Ceil(q*float64(n)))
		if beyond < 10 {
			break
		}
		best = q
	}
	return best
}

// Spread is the inter-quartile range of v over its median, with the
// quartiles Python's statistics.quantiles(v, n=4) gives (the exclusive
// method), which is what the benchmark's driver computes.
func Spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quartile := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based rank
		lo := int(math.Floor(pos))
		if lo < 1 {
			lo = 1
		}
		if lo > len(s)-1 {
			lo = len(s) - 1
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return (quartile(3) - quartile(1)) / Median(s)
}
