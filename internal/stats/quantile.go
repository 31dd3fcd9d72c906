package stats

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Quantile returns the p-quantile of xs using linear interpolation
// between order statistics (Hyndman-Fan type 7, the default of R and
// NumPy). It copies xs and finds the one or two order statistics it
// needs by selection (SelectQuantile), in expected linear time, without
// sorting; callers that ask several quantiles of the same data should
// hold a Sample, which sorts once and answers all of them. Returns NaN
// for empty input or p outside [0, 1].
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 || p < 0 || p > 1 || math.IsNaN(p) {
		return math.NaN()
	}
	return SelectQuantile(append([]float64(nil), xs...), p)
}

// SelectQuantile is Quantile computed in place: it reorders xs instead
// of copying it, so a caller that reuses one scratch buffer allocates
// nothing. The answer is bit-identical to QuantileSorted over xs sorted
// by sort.Float64s (NaNs first; any NaN answer is a NaN), with one
// exception: when xs holds both −0 and +0, a zero answer may differ in
// sign, because the two compare equal and sort.Float64s leaves their
// order unspecified too.
func SelectQuantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 || p < 0 || p > 1 || math.IsNaN(p) {
		return math.NaN()
	}
	lo, frac, interp := quantileIndex(n, p)
	// Under the sort.Float64s order NaN sorts first: gather the NaNs at
	// the front, then select among the rest with plain comparisons.
	nans := 0
	for i, x := range xs {
		if math.IsNaN(x) {
			xs[i], xs[nans] = xs[nans], x
			nans++
		}
	}
	if lo < nans {
		return xs[lo]
	}
	rest := xs[nans:]
	k := lo - nans
	selectKth(rest, k)
	if !interp {
		return rest[k]
	}
	// Every element after position k sorts no earlier than rest[k], so
	// the next order statistic is their minimum.
	next := rest[k+1]
	for _, x := range rest[k+2:] {
		if x < next {
			next = x
		}
	}
	return rest[k] + frac*(next-rest[k])
}

// QuantileSorted is Quantile for data that is already sorted ascending.
func QuantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 || p < 0 || p > 1 || math.IsNaN(p) {
		return math.NaN()
	}
	lo, frac, interp := quantileIndex(n, p)
	if !interp {
		return sorted[lo]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// quantileIndex locates the type-7 p-quantile of n sorted values: the
// order statistic lo and, when interp, the fraction of the way to
// lo+1. QuantileSorted and SelectQuantile share it so both interpolate
// between the same order statistics with the same arithmetic.
func quantileIndex(n int, p float64) (lo int, frac float64, interp bool) {
	if n == 1 {
		return 0, 0, false
	}
	h := p * float64(n-1)
	lo = int(math.Floor(h))
	if lo+1 >= n {
		return n - 1, 0, false
	}
	return lo, h - float64(lo), true
}

// selectCutoff is the longest range selectKth insertion-sorts instead
// of partitioning.
const selectCutoff = 12

// selectKth reorders xs, which holds no NaN, so that xs[k] is the
// element an ascending sort puts at k, with no larger element before it
// and no smaller one after it. It is introselect: Hoare partitions
// around a median-of-3 pivot, narrowing to k's side, and a sort of the
// remaining range once 2·log2(n) partitions have kept more than 7/8 of
// their range, which bounds the worst case at O(n log n).
func selectKth(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	badSplits := 2 * bits.Len(uint(len(xs)))
	for hi-lo+1 > selectCutoff {
		m := lo + (hi-lo)/2
		if xs[m] < xs[lo] {
			xs[m], xs[lo] = xs[lo], xs[m]
		}
		if xs[hi] < xs[m] {
			xs[hi], xs[m] = xs[m], xs[hi]
			if xs[m] < xs[lo] {
				xs[m], xs[lo] = xs[lo], xs[m]
			}
		}
		// xs[lo] <= pivot <= xs[hi] stop both scans inside the range.
		pivot := xs[m]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for pivot < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// Now xs[lo..j] <= pivot <= xs[i..hi], and anything between
		// equals the pivot and is already in its sorted place.
		size := hi - lo + 1
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
		if hi-lo+1 > size-size/8 {
			if badSplits--; badSplits == 0 {
				slices.Sort(xs[lo : hi+1])
				return
			}
		}
	}
	// Insertion sort finishes a short range.
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Percentiles evaluates several quantiles at once, sorting only once.
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, 0, len(ps))
	if len(xs) == 0 {
		for range ps {
			out = append(out, math.NaN())
		}
		return out
	}
	var s Sample
	s.loadSorted(xs)
	return s.Percentiles(out, ps...)
}

// ECDF is an empirical cumulative distribution function over a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs (copied and sorted).
func NewECDF(xs []float64) *ECDF {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &ECDF{sorted: sorted}
}

// SampleECDF wraps a Sample's sorted buffer as an ECDF without
// copying. The ECDF is invalidated by the Sample's next Reset or Push.
func SampleECDF(s *Sample) *ECDF { return &ECDF{sorted: s.Sorted()} }

// At returns the fraction of the sample <= x.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	// Index of first element > x.
	i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(i) / float64(len(e.sorted))
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// Points returns up to max evenly spaced (value, cumulative fraction)
// pairs for plotting, always including the first and last sample. This
// is how Figure 6's CDFs are serialised.
func (e *ECDF) Points(max int) (values, fractions []float64) {
	return ecdfPoints(e.sorted, max, nil, nil)
}

// ecdfPoints is the shared decimation loop behind ECDF.Points and
// Sample.ECDFPoints, appending to the given slices.
func ecdfPoints(sorted []float64, max int, values, fractions []float64) (v, f []float64) {
	n := len(sorted)
	if n == 0 || max <= 0 {
		return values, fractions
	}
	if max > n {
		max = n
	}
	for i := 0; i < max; i++ {
		idx := i * (n - 1) / maxInt(max-1, 1)
		values = append(values, sorted[idx])
		fractions = append(fractions, float64(idx+1)/float64(n))
	}
	return values, fractions
}

// Quantile returns the p-quantile of the underlying sample.
func (e *ECDF) Quantile(p float64) float64 { return QuantileSorted(e.sorted, p) }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Histogram bins a sample into equal-width buckets over [lo, hi).
// Values outside the range are clamped into the first or last bucket,
// so the counts always sum to len(xs).
type Histogram struct {
	Lo, Hi float64
	Counts []int
}

// NewHistogram bins xs into bins equal-width buckets spanning [lo, hi).
// It panics if bins <= 0 or hi <= lo.
func NewHistogram(xs []float64, lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: NewHistogram requires bins > 0")
	}
	if hi <= lo {
		panic("stats: NewHistogram requires hi > lo")
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	binInto(h, xs)
	return h
}

// binInto is the shared clamp-and-bin loop behind NewHistogram and
// Sample.FillHistogram. Counts are incremented, not reset.
func binInto(h *Histogram, xs []float64) {
	bins := len(h.Counts)
	width := (h.Hi - h.Lo) / float64(bins)
	for _, x := range xs {
		i := int((x - h.Lo) / width)
		if i < 0 {
			i = 0
		}
		if i >= bins {
			i = bins - 1
		}
		h.Counts[i]++
	}
}

// Densities returns the fraction of samples in each bucket. Used to
// render the violin plot of Figure 9 (plot thickness proportional to
// probability density).
func (h *Histogram) Densities() []float64 {
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	out := make([]float64, len(h.Counts))
	if total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// BucketCenter returns the midpoint value of bucket i.
func (h *Histogram) BucketCenter(i int) float64 {
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*width
}
