package stats

import (
	"math"
	"sort"
	"testing"

	"cloudvar/internal/simrand"
)

// The reference implementations below are verbatim copies of the
// pre-Sample copy-and-sort-per-call algorithms. The property tests
// assert the Sample-backed package functions and the Sample methods
// answer bit-identically to them across randomized inputs, including
// the NaN / empty / single-element edges — the contract that keeps
// every golden artifact byte-stable across the allocation-free
// rewrite.

func refQuantile(xs []float64, p float64) float64 {
	if len(xs) == 0 || p < 0 || p > 1 || math.IsNaN(p) {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, p)
}

func refPercentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, p := range ps {
		out[i] = QuantileSorted(sorted, p)
	}
	return out
}

func refSummarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		nan := math.NaN()
		s.Mean, s.StdDev, s.CoV = nan, nan, nan
		s.Min, s.P01, s.P25, s.Median, s.P75, s.P90, s.P99, s.Max = nan, nan, nan, nan, nan, nan, nan, nan
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Mean = Mean(xs)
	s.StdDev = StdDev(xs)
	s.CoV = CoefficientOfVariation(xs)
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	s.P01 = QuantileSorted(sorted, 0.01)
	s.P25 = QuantileSorted(sorted, 0.25)
	s.Median = QuantileSorted(sorted, 0.50)
	s.P75 = QuantileSorted(sorted, 0.75)
	s.P90 = QuantileSorted(sorted, 0.90)
	s.P99 = QuantileSorted(sorted, 0.99)
	return s
}

func refQuantileCI(xs []float64, q, conf float64) (Interval, error) {
	n := len(xs)
	iv := Interval{Confidence: conf, N: n}
	if n == 0 {
		return iv, ErrInsufficientData
	}
	if q <= 0 || q >= 1 {
		return iv, errQuantileRange(q)
	}
	if conf <= 0 || conf >= 1 {
		return iv, errConfidenceRange(conf)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	iv.Estimate = QuantileSorted(sorted, q)
	alpha := 1 - conf
	l, u, achievable := quantileOrderIndices(n, q, alpha)
	if !achievable {
		return iv, errCIUnachievable(n, conf, q)
	}
	iv.Lo = sorted[l-1]
	iv.Hi = sorted[u-1]
	return iv, nil
}

// sameFloat reports bit-level agreement modulo NaN (any NaN equals any
// NaN: quantile interpolation can produce NaNs with different
// payloads, which no serialiser distinguishes).
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func sameInterval(a, b Interval) bool {
	return sameFloat(a.Estimate, b.Estimate) && sameFloat(a.Lo, b.Lo) &&
		sameFloat(a.Hi, b.Hi) && a.Confidence == b.Confidence && a.N == b.N
}

// randomInputs generates the property-test corpus: sizes spanning the
// edges (empty, single element, two, odd, even, large), values
// including duplicates, negatives, zeros and NaNs.
func randomInputs(t *testing.T) [][]float64 {
	t.Helper()
	src := simrand.New(20260729)
	inputs := [][]float64{
		nil,
		{},
		{3.5},
		{math.NaN()},
		{1, 1},
		{math.Inf(1), math.Inf(-1), 0},
		{math.NaN(), 2, math.NaN(), 1},
	}
	for _, n := range []int{2, 3, 5, 17, 64, 501} {
		for rep := 0; rep < 8; rep++ {
			xs := make([]float64, n)
			for i := range xs {
				switch src.Intn(10) {
				case 0:
					xs[i] = 0
				case 1:
					xs[i] = -src.Float64() * 100
				case 2:
					xs[i] = math.Floor(src.Float64() * 4) // duplicates
				default:
					xs[i] = src.Normal(100, 25)
				}
			}
			if rep == 7 && n > 2 {
				xs[src.Intn(n)] = math.NaN()
			}
			inputs = append(inputs, xs)
		}
	}
	return inputs
}

func TestSampleEquivalenceQuantile(t *testing.T) {
	ps := []float64{-0.1, 0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1, 1.1, math.NaN()}
	var s Sample
	for _, xs := range randomInputs(t) {
		s.Reset(xs)
		for _, p := range ps {
			want := refQuantile(xs, p)
			if got := Quantile(xs, p); !sameFloat(got, want) {
				t.Fatalf("Quantile(n=%d, p=%g) = %x, reference %x", len(xs), p, got, want)
			}
			// The Sample method diverges from the package function only
			// in the degenerate cases the wrapper rejects up front.
			if len(xs) > 0 && p >= 0 && p <= 1 && !math.IsNaN(p) {
				if got := s.Quantile(p); !sameFloat(got, want) {
					t.Fatalf("Sample.Quantile(n=%d, p=%g) = %x, reference %x", len(xs), p, got, want)
				}
			}
		}
	}
}

func TestSampleEquivalencePercentiles(t *testing.T) {
	ps := []float64{0.01, 0.1, 0.5, 0.9, 0.99}
	var s Sample
	for _, xs := range randomInputs(t) {
		want := refPercentiles(xs, ps...)
		got := Percentiles(xs, ps...)
		if len(got) != len(want) {
			t.Fatalf("Percentiles length %d, want %d", len(got), len(want))
		}
		for i := range want {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("Percentiles(n=%d)[%d] = %x, reference %x", len(xs), i, got[i], want[i])
			}
		}
		if len(xs) > 0 {
			sGot := s.Reset(xs).Percentiles(nil, ps...)
			for i := range want {
				if !sameFloat(sGot[i], want[i]) {
					t.Fatalf("Sample.Percentiles(n=%d)[%d] = %x, reference %x", len(xs), i, sGot[i], want[i])
				}
			}
		}
	}
}

func TestSampleEquivalenceSummarize(t *testing.T) {
	var s Sample
	for _, xs := range randomInputs(t) {
		want := refSummarize(xs)
		for name, got := range map[string]Summary{
			"Summarize":      Summarize(xs),
			"Sample.Summary": s.Reset(xs).Summary(),
		} {
			if got.N != want.N ||
				!sameFloat(got.Mean, want.Mean) || !sameFloat(got.StdDev, want.StdDev) ||
				!sameFloat(got.CoV, want.CoV) || !sameFloat(got.Min, want.Min) ||
				!sameFloat(got.P01, want.P01) || !sameFloat(got.P25, want.P25) ||
				!sameFloat(got.Median, want.Median) || !sameFloat(got.P75, want.P75) ||
				!sameFloat(got.P90, want.P90) || !sameFloat(got.P99, want.P99) ||
				!sameFloat(got.Max, want.Max) {
				t.Fatalf("%s(n=%d) = %+v, reference %+v", name, len(xs), got, want)
			}
		}
	}
}

func TestSampleEquivalenceQuantileCI(t *testing.T) {
	var s Sample
	for _, xs := range randomInputs(t) {
		for _, q := range []float64{-1, 0, 0.5, 0.9, 1} {
			for _, conf := range []float64{0, 0.8, 0.95, 1} {
				want, wantErr := refQuantileCI(xs, q, conf)
				got, gotErr := QuantileCI(xs, q, conf)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("QuantileCI(n=%d, q=%g, conf=%g) err = %v, reference %v", len(xs), q, conf, gotErr, wantErr)
				}
				if wantErr != nil && gotErr.Error() != wantErr.Error() {
					t.Fatalf("QuantileCI(n=%d, q=%g, conf=%g) error text %q, reference %q", len(xs), q, conf, gotErr, wantErr)
				}
				if !sameInterval(got, want) {
					t.Fatalf("QuantileCI(n=%d, q=%g, conf=%g) = %+v, reference %+v", len(xs), q, conf, got, want)
				}
				sGot, sErr := s.Reset(xs).QuantileCI(q, conf)
				if (wantErr == nil) != (sErr == nil) || !sameInterval(sGot, want) {
					t.Fatalf("Sample.QuantileCI(n=%d, q=%g, conf=%g) = %+v (%v), reference %+v (%v)", len(xs), q, conf, sGot, sErr, want, wantErr)
				}
			}
		}
	}
}

// TestSamplePushEquivalence grows a sample one observation at a time
// and checks every prefix answers identically to a from-scratch sort
// of that prefix — the CONFIRM usage pattern.
func TestSamplePushEquivalence(t *testing.T) {
	src := simrand.New(7)
	seq := make([]float64, 120)
	for i := range seq {
		seq[i] = src.Normal(50, 20)
	}
	seq[13] = math.NaN()
	seq[14] = math.NaN()
	seq[40] = seq[39] // duplicate
	var s Sample
	for i, x := range seq {
		s.Push(x)
		prefix := seq[:i+1]
		for _, p := range []float64{0, 0.25, 0.5, 0.9, 1} {
			if got, want := s.Quantile(p), refQuantile(prefix, p); !sameFloat(got, want) {
				t.Fatalf("prefix %d: Push-built Quantile(%g) = %x, sorted-from-scratch %x", i+1, p, got, want)
			}
		}
		want, wantErr := refQuantileCI(prefix, 0.5, 0.95)
		got, gotErr := s.MedianCI(0.95)
		if (wantErr == nil) != (gotErr == nil) || !sameInterval(got, want) {
			t.Fatalf("prefix %d: Push-built MedianCI = %+v (%v), reference %+v (%v)", i+1, got, gotErr, want, wantErr)
		}
	}
}

// TestSampleResetReusesBuffer pins the allocation contract: steady-
// state Reset+query performs no allocation once the buffer has grown.
func TestSampleResetReusesBuffer(t *testing.T) {
	src := simrand.New(5)
	xs := make([]float64, 512)
	for i := range xs {
		xs[i] = src.Float64()
	}
	var s Sample
	s.Reset(xs) // warm the buffer
	allocs := testing.AllocsPerRun(100, func() {
		s.Reset(xs)
		if s.Median() <= 0 {
			t.Fatal("bad median")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Reset allocated %.1f times per run, want 0", allocs)
	}
}
