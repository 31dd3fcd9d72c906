package stats

import (
	"math"
	"sort"

	"cloudvar/internal/simrand"
)

// Sample is a measurement sample that is sorted once and then answers
// every order-statistic query — quantiles, percentile batches, ECDF
// evaluation, histograms, nonparametric confidence intervals — from
// the same sorted buffer. It is the allocation-free core the
// copy-and-sort-per-call package functions (Percentiles, Summarize,
// QuantileCI, ...) are thin wrappers over; a single Quantile selects
// instead (SelectQuantile).
//
// The zero value is an empty sample ready for Reset. Reset reuses the
// internal buffers, so a Sample held across loop iterations (one per
// campaign bin, window, or prefix) performs no steady-state
// allocation:
//
//	var s stats.Sample
//	for _, window := range windows {
//		s.Reset(window)
//		medians = append(medians, s.Median())
//	}
//
// Sample is not safe for concurrent use; give each goroutine its own
// (the fleet gives each worker one inside its scratch arena).
//
// Bit-compatibility contract: every query answers with exactly the
// bits the legacy package functions produce. In particular Reset
// computes the moment statistics (mean, variance) over the input in
// its original order before sorting, because float64 summation is
// order-sensitive and Summarize always summed in caller order.
type Sample struct {
	sorted []float64
	// Moments captured at Reset in input order; valid only while
	// momentsValid (Push invalidates them, and recomputes on demand
	// from the sorted buffer — ulp-level different from a Reset of the
	// same data in arrival order, so push-built samples should not be
	// mixed into golden-artifact paths that legacy-summarised).
	mean         float64
	variance     float64
	momentsValid bool
	// scratch backs bootstrap resampling and other transient needs.
	scratch []float64
}

// NewSample returns a Sample over a copy of xs, sorted once.
func NewSample(xs []float64) *Sample {
	s := &Sample{}
	s.Reset(xs)
	return s
}

// Reset loads xs into the sample, reusing the internal buffers. The
// input is copied, never aliased or mutated.
func (s *Sample) Reset(xs []float64) *Sample {
	s.mean = Mean(xs)
	s.variance = Variance(xs)
	s.loadSorted(xs)
	s.momentsValid = true
	return s
}

// loadSorted loads and sorts xs without capturing moments — the
// cheaper path for order-statistic-only wrappers (Percentiles, CIs).
func (s *Sample) loadSorted(xs []float64) {
	s.momentsValid = false
	s.sorted = append(s.sorted[:0], xs...)
	sort.Float64s(s.sorted)
}

// Push inserts one observation into sorted position (shifting the
// tail), growing the sample incrementally — the CONFIRM prefix
// pattern, where re-sorting every prefix would be O(n² log n). NaNs
// sort first, matching sort.Float64s.
func (s *Sample) Push(x float64) {
	i := sort.Search(len(s.sorted), func(i int) bool {
		v := s.sorted[i]
		// First index whose element sorts strictly after x under the
		// sort.Float64s order (NaN < everything, then <).
		if math.IsNaN(x) {
			return !math.IsNaN(v)
		}
		return x < v
	})
	s.sorted = append(s.sorted, 0)
	copy(s.sorted[i+1:], s.sorted[i:])
	s.sorted[i] = x
	s.momentsValid = false
}

// N returns the sample size.
func (s *Sample) N() int { return len(s.sorted) }

// Sorted exposes the sorted buffer. Callers must treat it as
// read-only; it is invalidated by the next Reset or Push.
func (s *Sample) Sorted() []float64 { return s.sorted }

// Min returns the smallest observation, or NaN for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.sorted) == 0 {
		return math.NaN()
	}
	return s.sorted[0]
}

// Max returns the largest observation, or NaN for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.sorted) == 0 {
		return math.NaN()
	}
	return s.sorted[len(s.sorted)-1]
}

// moments returns (mean, variance) with the legacy bit pattern: the
// input-order sums captured at Reset when available, else recomputed
// from the sorted buffer (push-built samples).
func (s *Sample) moments() (mean, variance float64) {
	if s.momentsValid {
		return s.mean, s.variance
	}
	return Mean(s.sorted), Variance(s.sorted)
}

// Mean returns the arithmetic mean, or NaN for an empty sample.
func (s *Sample) Mean() float64 {
	m, _ := s.moments()
	return m
}

// StdDev returns the unbiased sample standard deviation, or NaN below
// two observations.
func (s *Sample) StdDev() float64 {
	_, v := s.moments()
	return math.Sqrt(v)
}

// CoV returns the fractional coefficient of variation, NaN when the
// mean is zero.
func (s *Sample) CoV() float64 {
	m, v := s.moments()
	if m == 0 || math.IsNaN(m) {
		return math.NaN()
	}
	return math.Sqrt(v) / math.Abs(m)
}

// Quantile returns the p-quantile (Hyndman-Fan type 7) without any
// copying or re-sorting. NaN for an empty sample or p outside [0, 1].
func (s *Sample) Quantile(p float64) float64 { return QuantileSorted(s.sorted, p) }

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Percentiles appends the requested quantiles to dst (which may be
// nil) and returns it — the batched path, allocation-free when dst has
// capacity.
func (s *Sample) Percentiles(dst []float64, ps ...float64) []float64 {
	for _, p := range ps {
		dst = append(dst, s.Quantile(p))
	}
	return dst
}

// CDF returns the fraction of the sample <= x (the ECDF evaluated at
// x), or NaN for an empty sample.
func (s *Sample) CDF(x float64) float64 {
	if len(s.sorted) == 0 {
		return math.NaN()
	}
	i := sort.Search(len(s.sorted), func(i int) bool { return s.sorted[i] > x })
	return float64(i) / float64(len(s.sorted))
}

// ECDFPoints appends up to max evenly spaced (value, cumulative
// fraction) pairs to the given slices and returns them — ECDF.Points
// served from the shared sorted buffer.
func (s *Sample) ECDFPoints(max int, values, fractions []float64) (v, f []float64) {
	return ecdfPoints(s.sorted, max, values, fractions)
}

// Summary computes the full descriptive summary from the sorted
// buffer, bit-identical to Summarize on the Reset input.
func (s *Sample) Summary() Summary {
	out := Summary{N: len(s.sorted)}
	if len(s.sorted) == 0 {
		nan := math.NaN()
		out.Mean, out.StdDev, out.CoV = nan, nan, nan
		out.Min, out.P01, out.P25, out.Median, out.P75, out.P90, out.P99, out.Max = nan, nan, nan, nan, nan, nan, nan, nan
		return out
	}
	out.Mean = s.Mean()
	out.StdDev = s.StdDev()
	out.CoV = s.CoV()
	out.Min = s.sorted[0]
	out.Max = s.sorted[len(s.sorted)-1]
	out.P01 = s.Quantile(0.01)
	out.P25 = s.Quantile(0.25)
	out.Median = s.Quantile(0.50)
	out.P75 = s.Quantile(0.75)
	out.P90 = s.Quantile(0.90)
	out.P99 = s.Quantile(0.99)
	return out
}

// QuantileCI computes the Le Boudec nonparametric CI for the
// q-quantile from the already-sorted buffer (see the package function
// QuantileCI for the method).
func (s *Sample) QuantileCI(q, conf float64) (Interval, error) {
	n := len(s.sorted)
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
	iv.Estimate = QuantileSorted(s.sorted, q)
	alpha := 1 - conf
	l, u, achievable := quantileOrderIndices(n, q, alpha)
	if !achievable {
		return iv, errCIUnachievable(n, conf, q)
	}
	iv.Lo = s.sorted[l-1] // order statistics are 1-based
	iv.Hi = s.sorted[u-1]
	return iv, nil
}

// MedianCI is QuantileCI at q = 0.5.
func (s *Sample) MedianCI(conf float64) (Interval, error) { return s.QuantileCI(0.5, conf) }

// BootstrapCI is the percentile-bootstrap CI computed with the
// sample's reusable scratch: steady-state resampling allocates
// nothing. Resamples are drawn from the sorted buffer; the bootstrap
// distribution is identical in law to the package function's (indices
// are iid uniform), though not bit-for-bit for a given source state.
func (s *Sample) BootstrapCI(statistic func([]float64) float64, conf float64, resamples int, src *simrand.Source) (Interval, error) {
	n := len(s.sorted)
	iv := Interval{Confidence: conf, N: n}
	if n < 2 {
		return iv, ErrInsufficientData
	}
	if resamples < 10 {
		return iv, errTooFewResamples(resamples)
	}
	iv.Estimate = statistic(s.sorted)
	need := resamples + n
	if cap(s.scratch) < need {
		s.scratch = make([]float64, need)
	}
	s.scratch = s.scratch[:need]
	statsBuf, resample := s.scratch[:resamples], s.scratch[resamples:]
	for r := range statsBuf {
		for i := range resample {
			resample[i] = s.sorted[src.Intn(n)]
		}
		statsBuf[r] = statistic(resample)
	}
	sort.Float64s(statsBuf)
	alpha := 1 - conf
	iv.Lo = QuantileSorted(statsBuf, alpha/2)
	iv.Hi = QuantileSorted(statsBuf, 1-alpha/2)
	return iv, nil
}

// FillHistogram bins the sample into h, reusing h's Counts buffer.
// h's bounds and bin count are kept; previous counts are cleared.
func (s *Sample) FillHistogram(h *Histogram) {
	if len(h.Counts) == 0 {
		return
	}
	for i := range h.Counts {
		h.Counts[i] = 0
	}
	binInto(h, s.sorted)
}
