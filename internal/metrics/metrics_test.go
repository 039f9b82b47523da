package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func ms(n int64) sim.Time { return sim.Time(n) * sim.Time(sim.Millisecond) }

func TestSeriesAddAndQuery(t *testing.T) {
	s := NewSeries("x")
	s.Add(ms(0), 1)
	s.Add(ms(10), 2)
	s.Add(ms(20), 3)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if p := s.At(1); p.V != 2 || p.T != ms(10) {
		t.Fatalf("At(1) = %+v", p)
	}
	last, ok := s.Last()
	if !ok || last.V != 3 {
		t.Fatalf("Last = %+v ok=%v", last, ok)
	}
}

func TestSeriesRejectsBackwardsTime(t *testing.T) {
	s := NewSeries("x")
	s.Add(ms(10), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on backwards sample")
		}
	}()
	s.Add(ms(5), 2)
}

func TestSeriesAllowsEqualTimes(t *testing.T) {
	s := NewSeries("x")
	s.Add(ms(10), 1)
	s.Add(ms(10), 2)
	if s.Len() != 2 {
		t.Fatal("equal-time samples rejected")
	}
}

func TestSeriesValueAtZeroOrderHold(t *testing.T) {
	s := NewSeries("x")
	s.Add(ms(10), 1)
	s.Add(ms(20), 5)
	if _, ok := s.ValueAt(ms(5)); ok {
		t.Fatal("ValueAt before first sample should report !ok")
	}
	if v, _ := s.ValueAt(ms(10)); v != 1 {
		t.Fatalf("ValueAt(10ms) = %v", v)
	}
	if v, _ := s.ValueAt(ms(15)); v != 1 {
		t.Fatalf("ValueAt(15ms) = %v", v)
	}
	if v, _ := s.ValueAt(ms(20)); v != 5 {
		t.Fatalf("ValueAt(20ms) = %v", v)
	}
	if v, _ := s.ValueAt(ms(1000)); v != 5 {
		t.Fatalf("ValueAt(1s) = %v", v)
	}
}

func TestSeriesSlice(t *testing.T) {
	s := NewSeries("x")
	for i := int64(0); i < 10; i++ {
		s.Add(ms(i*10), float64(i))
	}
	sub := s.Slice(ms(20), ms(50))
	if sub.Len() != 3 {
		t.Fatalf("Slice len = %d, want 3", sub.Len())
	}
	if sub.At(0).V != 2 || sub.At(2).V != 4 {
		t.Fatalf("Slice contents wrong: %+v", sub.Points())
	}
}

func TestSeriesMinMaxMean(t *testing.T) {
	s := NewSeries("x")
	for i, v := range []float64{3, -1, 4, 1, 5} {
		s.Add(ms(int64(i)), v)
	}
	if s.Min() != -1 || s.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if got := s.Mean(); math.Abs(got-2.4) > 1e-12 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestTimeWeightedMean(t *testing.T) {
	s := NewSeries("x")
	s.Add(ms(0), 0)
	s.Add(ms(500), 10) // signal is 0 for first half, 10 for second
	got := s.TimeWeightedMean(ms(0), ms(1000))
	if math.Abs(got-5) > 1e-9 {
		t.Fatalf("TimeWeightedMean = %v, want 5", got)
	}
	// Window entirely in the 10 region.
	got = s.TimeWeightedMean(ms(600), ms(800))
	if math.Abs(got-10) > 1e-9 {
		t.Fatalf("TimeWeightedMean(600,800) = %v, want 10", got)
	}
}

func TestWriteCSV(t *testing.T) {
	s := NewSeries("fill")
	s.Add(ms(0), 0.5)
	s.Add(ms(1000), 0.75)
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "time_s,fill\n") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "1.000000,0.75") {
		t.Fatalf("missing row: %q", out)
	}
}

func TestWriteTableCSV(t *testing.T) {
	a, b := NewSeries("a"), NewSeries("b")
	a.Add(ms(0), 1)
	a.Add(ms(10), 2)
	b.Add(ms(0), 3)
	b.Add(ms(10), 4)
	var sb strings.Builder
	if err := WriteTableCSV(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "time_s,a,b") {
		t.Fatalf("bad header: %q", sb.String())
	}
	if !strings.Contains(sb.String(), "0.010000,2,4") {
		t.Fatalf("bad row: %q", sb.String())
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	vs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(vs); m != 5 {
		t.Fatalf("Mean = %v", m)
	}
	if v := Variance(vs); v != 4 {
		t.Fatalf("Variance = %v", v)
	}
	if sd := StdDev(vs); sd != 2 {
		t.Fatalf("StdDev = %v", sd)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty-slice stats should be 0")
	}
}

func TestPercentile(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := Percentile(vs, 0); p != 1 {
		t.Fatalf("P0 = %v", p)
	}
	if p := Percentile(vs, 100); p != 10 {
		t.Fatalf("P100 = %v", p)
	}
	if p := Percentile(vs, 50); math.Abs(p-5.5) > 1e-12 {
		t.Fatalf("P50 = %v", p)
	}
}

// refPercentile is the closest-ranks interpolation written out from
// scratch: copy, sort, interpolate.
func refPercentile(vs []float64, p float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	switch {
	case len(s) == 0:
		return 0
	case p <= 0:
		return s[0]
	case p >= 100:
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// TestPercentileSortedMatchesPercentile: on random reservoirs (duplicates
// and single samples included), sorting once and reading P50/P99/P999
// with PercentileSorted gives bit-identical results to Percentile and to
// the from-scratch reference.
func TestPercentileSortedMatchesPercentile(t *testing.T) {
	rng := sim.NewRNG(42)
	for _, n := range []int{0, 1, 2, 3, 10, 99, 100, 256, 511, 512, 4096} {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(rng.Intn(5000)) * rng.Float64() / 1000
			if i%7 == 3 && i > 0 {
				vs[i] = vs[i-1] // duplicates
			}
		}
		orig := append([]float64(nil), vs...)
		sorted := append([]float64(nil), vs...)
		sort.Float64s(sorted)
		for _, p := range []float64{0, 50, 99, 99.9, 100} {
			want := refPercentile(vs, p)
			if got := Percentile(vs, p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d P%v: Percentile %v, reference %v", n, p, got, want)
			}
			if got := PercentileSorted(sorted, p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d P%v: PercentileSorted %v, reference %v", n, p, got, want)
			}
		}
		for i := range vs {
			if math.Float64bits(vs[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("n=%d: Percentile reordered its input", n)
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || s.Min != 1 || s.Max != 3 || s.Mean != 2 {
		t.Fatalf("Summary = %+v", s)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 1, 10)
	h.Observe(0.05)
	h.Observe(0.55)
	h.Observe(0.55)
	h.Observe(-5)  // clamped to first
	h.Observe(2.0) // clamped to last
	if h.Buckets[0] != 2 {
		t.Fatalf("bucket 0 = %d", h.Buckets[0])
	}
	if h.Buckets[5] != 2 {
		t.Fatalf("bucket 5 = %d", h.Buckets[5])
	}
	if h.Buckets[9] != 1 {
		t.Fatalf("bucket 9 = %d", h.Buckets[9])
	}
	if f := h.Fraction(5); math.Abs(f-0.4) > 1e-12 {
		t.Fatalf("Fraction(5) = %v", f)
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 0.00066*x + 0.00057 // the paper's Figure 5 line
	}
	fit := FitLinear(xs, ys)
	if math.Abs(fit.Slope-0.00066) > 1e-12 {
		t.Fatalf("Slope = %v", fit.Slope)
	}
	if math.Abs(fit.Intercept-0.00057) > 1e-12 {
		t.Fatalf("Intercept = %v", fit.Intercept)
	}
	if fit.R2 < 0.999999 {
		t.Fatalf("R2 = %v", fit.R2)
	}
}

func TestFitLinearNoisy(t *testing.T) {
	rng := sim.NewRNG(3)
	var xs, ys []float64
	for i := 0; i < 100; i++ {
		x := float64(i)
		xs = append(xs, x)
		ys = append(ys, 2*x+1+(rng.Float64()-0.5)*0.1)
	}
	fit := FitLinear(xs, ys)
	if math.Abs(fit.Slope-2) > 0.01 {
		t.Fatalf("Slope = %v, want ≈2", fit.Slope)
	}
	if fit.R2 < 0.999 {
		t.Fatalf("R2 = %v, want ≈1", fit.R2)
	}
}

func TestFitLinearDegenerate(t *testing.T) {
	// Vertical line: all x equal.
	fit := FitLinear([]float64{1, 1, 1}, []float64{1, 2, 3})
	if fit.Slope != 0 || fit.Intercept != 2 {
		t.Fatalf("vertical fit = %+v", fit)
	}
	// Horizontal line: all y equal, exact fit.
	fit = FitLinear([]float64{1, 2, 3}, []float64{5, 5, 5})
	if fit.Slope != 0 || fit.Intercept != 5 || fit.R2 != 1 {
		t.Fatalf("horizontal fit = %+v", fit)
	}
}

// Property: for data generated exactly on a line, FitLinear recovers the
// line with R²≈1.
func TestPropertyFitRecoversLine(t *testing.T) {
	f := func(a8, b8 int8) bool {
		a := float64(a8) / 16
		b := float64(b8) / 16
		xs := []float64{0, 1, 2, 3, 4, 5}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = a*x + b
		}
		fit := FitLinear(xs, ys)
		return math.Abs(fit.Slope-a) < 1e-9 && math.Abs(fit.Intercept-b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureStepRising(t *testing.T) {
	s := NewSeries("alloc")
	// Signal at 100 until t=1s, then ramps to 200 over ~300ms.
	for i := int64(0); i <= 2000; i += 10 {
		tm := ms(i)
		v := 100.0
		if i > 1000 {
			v = 100 + math.Min(1, float64(i-1000)/300)*100
		}
		s.Add(tm, v)
	}
	r := MeasureStep(s, ms(1000), 100, 200, ms(2000))
	if !r.Settled {
		t.Fatal("step not settled")
	}
	// 90% of step = 190, reached at t ≈ 1000 + 270ms.
	if r.RiseTime < 250*sim.Millisecond || r.RiseTime > 300*sim.Millisecond {
		t.Fatalf("RiseTime = %v, want ≈270ms", r.RiseTime)
	}
}

func TestMeasureStepFalling(t *testing.T) {
	s := NewSeries("alloc")
	for i := int64(0); i <= 1000; i += 10 {
		v := 200.0
		if i > 500 {
			v = 100
		}
		s.Add(ms(i), v)
	}
	r := MeasureStep(s, ms(500), 200, 100, ms(1000))
	if !r.Settled {
		t.Fatal("falling step not settled")
	}
}

func TestMeasureStepNotSettled(t *testing.T) {
	s := NewSeries("alloc")
	for i := int64(0); i <= 1000; i += 10 {
		s.Add(ms(i), 100)
	}
	r := MeasureStep(s, ms(500), 100, 200, ms(1000))
	if r.Settled {
		t.Fatal("flat signal reported settled")
	}
}

func TestMeasureStepOvershoot(t *testing.T) {
	s := NewSeries("alloc")
	s.Add(ms(0), 100)
	s.Add(ms(10), 250) // 50% past a 100->200 step
	s.Add(ms(20), 200)
	r := MeasureStep(s, ms(0), 100, 200, ms(100))
	if math.Abs(r.Overshoot-0.5) > 1e-9 {
		t.Fatalf("Overshoot = %v, want 0.5", r.Overshoot)
	}
}

func TestOscillationAmplitude(t *testing.T) {
	s := NewSeries("fill")
	// Square wave between 0.4 and 0.6 with 20ms period.
	for i := int64(0); i < 1000; i += 10 {
		v := 0.4
		if (i/10)%2 == 1 {
			v = 0.6
		}
		s.Add(ms(i), v)
	}
	amp := OscillationAmplitude(s, ms(0), ms(1000), 100*sim.Millisecond)
	if math.Abs(amp-0.2) > 1e-9 {
		t.Fatalf("amplitude = %v, want 0.2", amp)
	}
	// A constant signal has zero amplitude.
	c := NewSeries("const")
	for i := int64(0); i < 1000; i += 10 {
		c.Add(ms(i), 0.5)
	}
	if amp := OscillationAmplitude(c, ms(0), ms(1000), 100*sim.Millisecond); amp != 0 {
		t.Fatalf("constant amplitude = %v", amp)
	}
}

// TestSeriesBound pins the bounded-series contract: past the bound the
// series holds only the newest samples, capacity stays within 2× the
// bound, ordering survives compaction, and recent-window queries keep
// working — the footprint guarantee behind per-job pressure series at
// 10k+ jobs.
func TestSeriesBound(t *testing.T) {
	const bound = 1000
	s := NewSeries("bounded").Bound(bound)
	const n = 100_000
	for i := 0; i < n; i++ {
		s.Add(ms(int64(i)), float64(i))
	}
	if s.Len() > 2*bound {
		t.Fatalf("bounded series holds %d points, want <= %d", s.Len(), 2*bound)
	}
	if cap(s.points) > 2*bound {
		t.Fatalf("bounded series capacity %d, want <= %d", cap(s.points), 2*bound)
	}
	// The newest samples survive, in order.
	last, ok := s.Last()
	if !ok || last.V != n-1 {
		t.Fatalf("Last = %+v, want newest sample %d", last, n-1)
	}
	for i := 1; i < s.Len(); i++ {
		if s.At(i).T < s.At(i-1).T {
			t.Fatalf("order broken at %d after compaction", i)
		}
	}
	// Recent-window zero-order-hold queries still resolve.
	if v, ok := s.ValueAt(ms(n - 10)); !ok || v != n-10 {
		t.Fatalf("ValueAt(n-10) = %v,%v", v, ok)
	}
	// Re-bounding tighter trims immediately.
	s.Bound(100)
	if s.Len() != 100 {
		t.Fatalf("re-bound to 100 left %d points", s.Len())
	}
	if last, _ := s.Last(); last.V != n-1 {
		t.Fatalf("re-bound dropped the newest sample: %+v", last)
	}
}
