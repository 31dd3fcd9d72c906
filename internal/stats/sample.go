package stats

import (
	"math"
	"sort"
)

// Sample is a measurement sample that answers every order-statistic
// query — quantiles, percentile batches, nonparametric confidence
// intervals — from one buffer, sorted at most once per Reset. It is the
// allocation-free core the copy-and-sort-per-call package functions
// (Percentiles, Summarize, QuantileCI, ...) are thin wrappers over; a
// single Quantile selects instead (SelectQuantile).
//
// Reset defers the sort: Summary selects the few order statistics it
// reports without sorting, and every other order-statistic query sorts
// the buffer first, once, and answers from it.
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
// bits the legacy package functions produce, except that Summary, like
// SelectQuantile, may answer a zero of the other sign when the input
// mixes -0 and +0. In particular Reset computes the moment statistics
// (mean, variance) over the input in its original order, because
// float64 summation is order-sensitive and Summarize always summed in
// caller order.
type Sample struct {
	// buf holds the observations: in an arbitrary order until a query
	// sorts it, then ascending in sort.Float64s order while sorted.
	buf    []float64
	sorted bool
	// Moments captured at Reset in input order; valid only while
	// momentsValid (Push invalidates them, and recomputes on demand
	// from the sorted buffer — ulp-level different from a Reset of the
	// same data in arrival order, so push-built samples should not be
	// mixed into golden-artifact paths that legacy-summarised).
	mean         float64
	variance     float64
	momentsValid bool
}

// Reset loads xs into the sample, reusing the internal buffers. The
// input is copied, never aliased or mutated.
func (s *Sample) Reset(xs []float64) *Sample {
	return s.Fill(func(dst []float64) []float64 { return append(dst, xs...) })
}

// Fill is Reset(fill(nil)) without the intermediate slice: fill
// appends the observations straight into the sample's reused buffer,
// so a column gathered from a larger record (for example
// trace.Series.AppendBandwidths) is copied once. The moments are
// captured over the buffer in fill's order, before any query reorders
// it.
func (s *Sample) Fill(fill func(dst []float64) []float64) *Sample {
	s.buf = fill(s.buf[:0])
	s.sorted = false
	s.mean = Mean(s.buf)
	s.variance = Variance(s.buf)
	s.momentsValid = true
	return s
}

// load copies xs into the buffer without capturing moments — the
// cheaper path for order-statistic-only wrappers (Percentiles, CIs).
func (s *Sample) load(xs []float64) {
	s.buf = append(s.buf[:0], xs...)
	s.sorted = false
	s.momentsValid = false
}

// sortedBuf sorts the buffer unless it is sorted already and returns
// it.
func (s *Sample) sortedBuf() []float64 {
	if !s.sorted {
		sort.Float64s(s.buf)
		s.sorted = true
	}
	return s.buf
}

// Push inserts one observation into sorted position (shifting the
// tail), growing the sample incrementally — the CONFIRM prefix
// pattern, where re-sorting every prefix would be O(n² log n). NaNs
// sort first, matching sort.Float64s.
func (s *Sample) Push(x float64) {
	sorted := s.sortedBuf()
	i := sort.Search(len(sorted), func(i int) bool {
		v := sorted[i]
		// First index whose element sorts strictly after x under the
		// sort.Float64s order (NaN < everything, then <).
		if math.IsNaN(x) {
			return !math.IsNaN(v)
		}
		return x < v
	})
	s.buf = append(s.buf, 0)
	copy(s.buf[i+1:], s.buf[i:])
	s.buf[i] = x
	s.momentsValid = false
}

// N returns the sample size.
func (s *Sample) N() int { return len(s.buf) }

// Min returns the smallest observation, or NaN for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.buf) == 0 {
		return math.NaN()
	}
	return s.sortedBuf()[0]
}

// Max returns the largest observation, or NaN for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.buf) == 0 {
		return math.NaN()
	}
	sorted := s.sortedBuf()
	return sorted[len(sorted)-1]
}

// moments returns (mean, variance) with the legacy bit pattern: the
// input-order sums captured at Reset when available, else recomputed
// from the sorted buffer (push-built samples).
func (s *Sample) moments() (mean, variance float64) {
	if s.momentsValid {
		return s.mean, s.variance
	}
	sorted := s.sortedBuf()
	return Mean(sorted), Variance(sorted)
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

// Quantile returns the p-quantile (Hyndman-Fan type 7) from the sorted
// buffer, sorting it first if needed. NaN for an empty sample or p
// outside [0, 1].
func (s *Sample) Quantile(p float64) float64 { return QuantileSorted(s.sortedBuf(), p) }

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

// summaryPs are the quantiles a Summary reports between Min and Max.
var summaryPs = [...]float64{0.01, 0.25, 0.50, 0.75, 0.90, 0.99}

// Summary computes the full descriptive summary, bit-identical to
// Summarize on the Reset input. Unless a query has sorted the buffer
// already, it selects the order statistics it reports instead of
// sorting (selectSummary): at most 14, the minimum, the maximum and the
// one or two behind each quantile.
func (s *Sample) Summary() Summary {
	n := len(s.buf)
	out := Summary{N: n}
	if n == 0 {
		nan := math.NaN()
		out.Mean, out.StdDev, out.CoV = nan, nan, nan
		out.Min, out.P01, out.P25, out.Median, out.P75, out.P90, out.P99, out.Max = nan, nan, nan, nan, nan, nan, nan, nan
		return out
	}
	out.Mean = s.Mean()
	out.StdDev = s.StdDev()
	out.CoV = s.CoV()
	if !s.sorted {
		selectSummary(s.buf)
	}
	// Every index read below holds its sorted value, so QuantileSorted
	// answers as it would from the sorted buffer.
	out.Min = s.buf[0]
	out.Max = s.buf[n-1]
	out.P01 = QuantileSorted(s.buf, summaryPs[0])
	out.P25 = QuantileSorted(s.buf, summaryPs[1])
	out.Median = QuantileSorted(s.buf, summaryPs[2])
	out.P75 = QuantileSorted(s.buf, summaryPs[3])
	out.P90 = QuantileSorted(s.buf, summaryPs[4])
	out.P99 = QuantileSorted(s.buf, summaryPs[5])
	return out
}

// QuantileCI computes the Le Boudec nonparametric CI for the
// q-quantile from the already-sorted buffer (see the package function
// QuantileCI for the method).
func (s *Sample) QuantileCI(q, conf float64) (Interval, error) {
	n := len(s.buf)
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
	sorted := s.sortedBuf()
	iv.Estimate = QuantileSorted(sorted, q)
	alpha := 1 - conf
	l, u, achievable := quantileOrderIndices(n, q, alpha)
	if !achievable {
		return iv, errCIUnachievable(n, conf, q)
	}
	iv.Lo = sorted[l-1] // order statistics are 1-based
	iv.Hi = sorted[u-1]
	return iv, nil
}

// MedianCI is QuantileCI at q = 0.5.
func (s *Sample) MedianCI(conf float64) (Interval, error) { return s.QuantileCI(0.5, conf) }
