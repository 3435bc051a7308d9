// Package stats provides the small statistical toolkit the experiments
// need: empirical CDFs, quantiles, summary statistics, hexbin-style 2-D
// aggregation, deterministic sampling helpers, and the check of an
// accounting identity. Nothing here depends on the rest of the module.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Partition checks one accounting identity, total = the sum of parts,
// and returns nil when it holds; otherwise an error that names it and
// gives its numbers.
func Partition(identity string, total int64, parts ...int64) error {
	var sum int64
	for _, p := range parts {
		sum += p
	}
	if total == sum {
		return nil
	}
	return fmt.Errorf("%s does not hold: %d, against %v summing to %d", identity, total, parts, sum)
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Max returns the largest element, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It copies and sorts internally.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from a sample (copied and sorted).
func NewCDF(xs []float64) *CDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len returns the sample size.
func (c *CDF) Len() int { return len(c.sorted) }

// Quantile returns the q-quantile of the sample.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return sortedQuantile(c.sorted, q)
}

// Summary is a compact five-number-plus-mean description of a sample.
type Summary struct {
	N                  int
	MinV, MaxV         float64
	MeanV, MedianV     float64
	P10, P25, P75, P90 float64
}

// Summarize computes a Summary for xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return Summary{
		N:       len(s),
		MinV:    s[0],
		MaxV:    s[len(s)-1],
		MeanV:   Mean(s),
		MedianV: sortedQuantile(s, 0.5),
		P10:     sortedQuantile(s, 0.10),
		P25:     sortedQuantile(s, 0.25),
		P75:     sortedQuantile(s, 0.75),
		P90:     sortedQuantile(s, 0.90),
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.2f p10=%.2f p25=%.2f med=%.2f mean=%.2f p75=%.2f p90=%.2f max=%.2f",
		s.N, s.MinV, s.P10, s.P25, s.MedianV, s.MeanV, s.P75, s.P90, s.MaxV)
}

// Hexbin aggregates 2-D points into a coarse grid, standing in for the
// paper's hexbin scatter plots (Figures 4 and 5). Bins are square; the
// name is kept for correspondence with the paper.
type Hexbin struct {
	BinSize float64
	Counts  map[[2]int]int
}

// NewHexbin creates a binner with the given bin edge length.
func NewHexbin(binSize float64) *Hexbin {
	return &Hexbin{BinSize: binSize, Counts: make(map[[2]int]int)}
}

// Add accumulates one point.
func (h *Hexbin) Add(x, y float64) {
	key := [2]int{int(math.Floor(x / h.BinSize)), int(math.Floor(y / h.BinSize))}
	h.Counts[key]++
}

// Zipf returns a deterministic Zipf-like popularity distribution over n
// ranks with exponent s, normalized to sum to 1.
func Zipf(n int, s float64) []float64 {
	w := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// WeightedChoice draws an index from weights (which must sum to ~1) using
// rng. It is O(n); callers on hot paths should use Sampler instead.
func WeightedChoice(rng *rand.Rand, weights []float64) int {
	r := rng.Float64()
	var acc float64
	for i, w := range weights {
		acc += w
		if r < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Sampler draws from a discrete distribution in O(1) per draw using the
// alias method (Walker/Vose).
type Sampler struct {
	prob  []float64
	alias []int
}

// NewSampler builds an alias sampler from (possibly unnormalized,
// nonnegative) weights.
func NewSampler(weights []float64) *Sampler {
	n := len(weights)
	s := &Sampler{prob: make([]float64, n), alias: make([]int, n)}
	if n == 0 {
		return s
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	if sum <= 0 {
		for i := range s.prob {
			s.prob[i] = 1
			s.alias[i] = i
		}
		return s
	}
	scaled := make([]float64, n)
	var small, large []int
	for i, w := range weights {
		scaled[i] = w / sum * float64(n)
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		large = large[:len(large)-1]
		s.prob[l] = scaled[l]
		s.alias[l] = g
		scaled[g] = scaled[g] + scaled[l] - 1
		if scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	for _, i := range append(small, large...) {
		s.prob[i] = 1
		s.alias[i] = i
	}
	return s
}

// Draw returns an index distributed according to the sampler's weights.
func (s *Sampler) Draw(rng *rand.Rand) int {
	if len(s.prob) == 0 {
		return 0
	}
	i := rng.Intn(len(s.prob))
	if rng.Float64() < s.prob[i] {
		return i
	}
	return s.alias[i]
}
