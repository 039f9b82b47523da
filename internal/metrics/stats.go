package metrics

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of vs, or 0 for an empty slice.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Variance returns the population variance of vs.
func Variance(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	m := Mean(vs)
	var acc float64
	for _, v := range vs {
		d := v - m
		acc += d * d
	}
	return acc / float64(len(vs))
}

// StdDev returns the population standard deviation of vs.
func StdDev(vs []float64) float64 { return math.Sqrt(Variance(vs)) }

// Percentile returns the p'th percentile (0..100) of vs using linear
// interpolation between closest ranks. It copies vs before sorting.
func Percentile(vs []float64, p float64) float64 {
	sorted := make([]float64, len(vs))
	copy(sorted, vs)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile of an already ascending-sorted sample, so
// a caller reading several percentiles of one sample sorts it once.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary bundles the common descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	P50    float64
	P95    float64
	P99    float64
}

// Summarize computes a Summary for vs.
func Summarize(vs []float64) Summary {
	s := Summary{N: len(vs)}
	if len(vs) == 0 {
		return s
	}
	s.Mean = Mean(vs)
	s.StdDev = StdDev(vs)
	s.Min, s.Max = vs[0], vs[0]
	for _, v := range vs {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.P50 = Percentile(vs, 50)
	s.P95 = Percentile(vs, 95)
	s.P99 = Percentile(vs, 99)
	return s
}

// Histogram is a fixed-bucket histogram over [Lo, Hi). Values outside the
// range are clamped into the first/last bucket so nothing is silently lost.
type Histogram struct {
	Lo, Hi  float64
	Buckets []int
	Count   int
}

// NewHistogram returns a histogram with n buckets spanning [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("metrics: invalid histogram shape")
	}
	return &Histogram{Lo: lo, Hi: hi, Buckets: make([]int, n)}
}

// Observe records a value.
func (h *Histogram) Observe(v float64) {
	n := len(h.Buckets)
	idx := int(float64(n) * (v - h.Lo) / (h.Hi - h.Lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	h.Buckets[idx]++
	h.Count++
}

// Fraction returns the fraction of observations in bucket i.
func (h *Histogram) Fraction(i int) float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Buckets[i]) / float64(h.Count)
}
