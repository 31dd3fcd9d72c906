package stats

import (
	"math"
	"math/bits"
	"slices"
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

// SelectQuantile is Quantile computed in place: it may reorder xs
// instead of copying it, so a caller that reuses one scratch buffer
// allocates nothing. The answer is bit-identical to QuantileSorted over
// xs sorted by sort.Float64s (NaNs first; any NaN answer is a NaN),
// with one exception: when xs holds both −0 and +0, a zero answer may
// differ in sign, because the two compare equal and sort.Float64s
// leaves their order unspecified too. An order statistic among the
// largest maxTail (a p99 of up to about 3,000 values) comes from one
// pass that leaves xs as it is (selectTail).
func SelectQuantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 || p < 0 || p > 1 || math.IsNaN(p) {
		return math.NaN()
	}
	lo, frac, interp := quantileIndex(n, p)
	if n-lo <= maxTail {
		return selectTail(xs, lo, frac, interp)
	}
	nans := gatherNaNs(xs)
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

// maxTail is the most order statistics, counted down from the
// largest, that selectTail keeps.
const maxTail = 32

// selectTail is SelectQuantile for an order statistic lo at most
// maxTail from the top (len(xs)-lo <= maxTail). One pass keeps the
// len(xs)-lo largest non-NaN values in ascending order and counts the
// NaNs, which sort first: when at least lo+1 values are NaN the answer
// is the NaN gatherNaNs would move to index lo, the lo-th in input
// order; otherwise the kept values are the sorted ranks lo and up, and
// the answer interpolates between the first two of them as
// SelectQuantile does. xs is left as it is.
func selectTail(xs []float64, lo int, frac float64, interp bool) float64 {
	m := len(xs) - lo
	var top [maxTail]float64
	kept, nans := 0, 0
	var nanAtLo float64
	for _, x := range xs {
		if kept == m && x <= top[0] {
			continue // the common case once top is full; false for a NaN
		}
		switch {
		case x != x: // NaN
			if nans == lo {
				nanAtLo = x
			}
			nans++
		case kept < m:
			// Insert into the sorted top[:kept].
			j := kept
			for ; j > 0 && x < top[j-1]; j-- {
				top[j] = top[j-1]
			}
			top[j] = x
			kept++
		default:
			// x displaces the smallest kept value.
			j := 0
			for ; j+1 < m && top[j+1] < x; j++ {
				top[j] = top[j+1]
			}
			top[j] = x
		}
	}
	if lo < nans {
		return nanAtLo
	}
	// len(xs)-nans >= m values are not NaN, so top[:m] is full.
	if !interp {
		return top[0]
	}
	return top[0] + frac*(top[1]-top[0])
}

// gatherNaNs moves the NaNs in xs to its front, where the
// sort.Float64s order puts them, and returns how many there are, so
// that selection among the rest needs only plain comparisons.
func gatherNaNs(xs []float64) int {
	nans := 0
	for i, x := range xs {
		if math.IsNaN(x) {
			xs[i], xs[nans] = xs[nans], x
			nans++
		}
	}
	return nans
}

// selectSummary reorders xs so that every index a Summary reads holds
// the element sort.Float64s would put there: 0 and len(xs)-1, and the
// one or two order statistics QuantileSorted interpolates between for
// each of summaryPs. It selects at most 14 ranks, in expected linear
// time, with the same −0/+0 caveat as SelectQuantile.
func selectSummary(xs []float64) {
	n := len(xs)
	var buf [2*len(summaryPs) + 2]int
	ranks := append(buf[:0], 0, n-1)
	for _, p := range summaryPs {
		lo, _, interp := quantileIndex(n, p)
		ranks = append(ranks, lo)
		if interp {
			ranks = append(ranks, lo+1)
		}
	}
	slices.Sort(ranks)
	ranks = slices.Compact(ranks)
	nans := gatherNaNs(xs)
	// Ranks among the NaNs already hold a NaN.
	for len(ranks) > 0 && ranks[0] < nans {
		ranks = ranks[1:]
	}
	selectRanks(xs[nans:], nans, ranks)
}

// selectRanks reorders xs, which holds no NaN and starts at index base
// of the whole, so that xs[r-base] holds the element an ascending sort
// puts there for every rank r in ranks (ascending and distinct). It
// places the middle rank and recurses on each side of it, so every
// range it selects in holds only its own ranks. A rank at either end of
// its range is the range's minimum or maximum, which a scan finds.
func selectRanks(xs []float64, base int, ranks []int) {
	if len(ranks) == 0 {
		return
	}
	mid := len(ranks) / 2
	k := ranks[mid] - base
	switch k {
	case 0:
		m := 0
		for i, x := range xs {
			if x < xs[m] {
				m = i
			}
		}
		xs[0], xs[m] = xs[m], xs[0]
	case len(xs) - 1:
		m := k
		for i, x := range xs {
			if x > xs[m] {
				m = i
			}
		}
		xs[k], xs[m] = xs[m], xs[k]
	default:
		selectKth(xs, k)
	}
	selectRanks(xs[:k], base, ranks[:mid])
	selectRanks(xs[k+1:], base+k+1, ranks[mid+1:])
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
	s.load(xs)
	return s.Percentiles(out, ps...)
}
