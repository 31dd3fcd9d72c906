package sketch

import (
	"math"
	"sort"
)

// Quantile is a bounded-memory online quantile sketch: a merging
// t-digest (Dunning's design) under the k1 scale function, which
// spends its compression budget where the paper's distributions need
// it — densely at the tails (P01/P99 whiskers) and coarsely around the
// median. It is fully deterministic: equal observation sequences
// produce equal sketches, which is what lets the fleet's workers=1-vs-8
// and resume byte-identity properties extend to sketch summarization.
//
// Inserts go to a fixed-size buffer; when it fills, the buffer is
// sorted and merged into the centroid list under the scale-function
// constraint. Steady state performs no allocation: the buffer and both
// centroid arrays are reused across merges (BenchmarkSketchPush pins
// 0 allocs/op).
//
// NaN observations are excluded from the sketch: a rank over data with
// NaNs mixed in is not well defined, so the contract is stated — and
// tested — over the finite observations.
//
// The zero value is an empty sketch using the committed contract's
// parameters. Quantile is not safe for concurrent use.
type Quantile struct {
	// compression is the t-digest delta; 0 means the committed
	// contract's value (set lazily so the zero value works).
	compression float64
	bufCap      int

	// means/weights are the merged centroids in ascending mean order;
	// spareMeans/spareWeights are the other half of the double buffer
	// the merge writes into.
	means, weights           []float64
	spareMeans, spareWeights []float64
	// merged is the total weight in the centroid list.
	merged float64

	// buf holds unmerged observations.
	buf []float64

	min, max float64
	n        uint64
}

// lazyInit makes the zero value usable with the contract parameters.
func (q *Quantile) lazyInit() {
	if q.compression == 0 {
		q.compression = committed.Compression
		q.bufCap = committed.Buffer
	}
}

// Reset empties the sketch, keeping its buffers for reuse.
func (q *Quantile) Reset() {
	q.means = q.means[:0]
	q.weights = q.weights[:0]
	q.buf = q.buf[:0]
	q.merged = 0
	q.min, q.max = 0, 0
	q.n = 0
}

// Add absorbs one observation in O(1) amortised time and O(1) memory.
func (q *Quantile) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	q.lazyInit()
	if q.n == 0 {
		q.min, q.max = x, x
	} else {
		if x < q.min {
			q.min = x
		}
		if x > q.max {
			q.max = x
		}
	}
	q.n++
	q.buf = append(q.buf, x)
	if len(q.buf) >= q.bufCap {
		q.flush()
	}
}

// N returns the number of finite observations absorbed.
func (q *Quantile) N() int { return int(q.n) }

// Min returns the smallest observation (exact), NaN when empty.
func (q *Quantile) Min() float64 {
	if q.n == 0 {
		return math.NaN()
	}
	return q.min
}

// Max returns the largest observation (exact), NaN when empty.
func (q *Quantile) Max() float64 {
	if q.n == 0 {
		return math.NaN()
	}
	return q.max
}

// k is the k1 scale function: k(p) = delta/(2*pi) * asin(2p-1). Its
// derivative diverges at p in {0, 1}, which is what keeps tail
// centroids near-singleton (exact extreme quantiles).
func (q *Quantile) k(p float64) float64 {
	return q.compression / (2 * math.Pi) * math.Asin(2*p-1)
}

// kInv inverts k, clamped to [0, 1].
func (q *Quantile) kInv(k float64) float64 {
	p := (math.Sin(2*math.Pi*k/q.compression) + 1) / 2
	switch {
	case k <= -q.compression/4:
		return 0
	case k >= q.compression/4:
		return 1
	case p < 0:
		return 0
	case p > 1:
		return 1
	}
	return p
}

// flush merges the pending buffer into the centroid list.
func (q *Quantile) flush() {
	if len(q.buf) == 0 {
		return
	}
	sort.Float64s(q.buf)
	q.mergeSorted(q.buf, nil)
	q.buf = q.buf[:0]
}

// mergeSorted folds a sorted (means, weights) stream into the centroid
// list under the scale-function constraint. nil weights mean every
// item weighs 1 (the insert buffer). The result lands in the spare
// arrays, then the double buffer swaps — steady state allocates
// nothing once both halves have grown to their working size.
func (q *Quantile) mergeSorted(ms, ws []float64) {
	total := q.merged
	for i := range ms {
		total += itemWeight(ws, i)
	}

	outM := q.spareMeans[:0]
	outW := q.spareWeights[:0]

	// Two-pointer merge over the existing centroids (a) and the
	// incoming stream (b), both ascending by mean.
	ai, bi := 0, 0
	next := func() (float64, float64) {
		if ai < len(q.means) && (bi >= len(ms) || q.means[ai] <= ms[bi]) {
			m, w := q.means[ai], q.weights[ai]
			ai++
			return m, w
		}
		m, w := ms[bi], itemWeight(ws, bi)
		bi++
		return m, w
	}

	curM, curW := next()
	cum := 0.0 // weight fully emitted so far
	limit := q.kInv(q.k(0)+1) * total
	for ai < len(q.means) || bi < len(ms) {
		m, w := next()
		if cum+curW+w <= limit {
			// Absorb into the current centroid (weighted mean).
			curM += (m - curM) * (w / (curW + w))
			curW += w
			continue
		}
		outM = append(outM, curM)
		outW = append(outW, curW)
		cum += curW
		limit = q.kInv(q.k(cum/total)+1) * total
		curM, curW = m, w
	}
	outM = append(outM, curM)
	outW = append(outW, curW)

	q.means, q.spareMeans = outM, q.means[:0]
	q.weights, q.spareWeights = outW, q.weights[:0]
	q.merged = total
}

func itemWeight(ws []float64, i int) float64 {
	if ws == nil {
		return 1
	}
	return ws[i]
}

// Quantile estimates the p-quantile. Pending inserts are flushed
// first, so a query is a read-only barrier, not a state fork: the
// answer equals what any future query over the same observations
// returns. NaN for an empty sketch or p outside [0, 1].
func (q *Quantile) Quantile(p float64) float64 {
	if q.n == 0 || math.IsNaN(p) || p < 0 || p > 1 {
		return math.NaN()
	}
	q.flush()
	if p == 0 {
		return q.min
	}
	if p == 1 {
		return q.max
	}
	target := p * q.merged

	// Piecewise-linear interpolation through the centroid centers,
	// anchored at (0, min) and (total, max): centroid i occupies
	// [cum, cum+w) with its mean at the center cum + w/2.
	cum := 0.0
	for i := range q.means {
		center := cum + q.weights[i]/2
		if target < center {
			x0, y0 := 0.0, q.min
			if i > 0 {
				x0 = cum - q.weights[i-1]/2
				y0 = q.means[i-1]
			}
			return interpolate(x0, y0, center, q.means[i], target)
		}
		cum += q.weights[i]
	}
	last := len(q.means) - 1
	x0 := q.merged - q.weights[last]/2
	return interpolate(x0, q.means[last], q.merged, q.max, target)
}

// interpolate maps target in [x0, x1] linearly onto [y0, y1].
func interpolate(x0, y0, x1, y1, target float64) float64 {
	if x1 <= x0 {
		return y1
	}
	t := (target - x0) / (x1 - x0)
	return y0 + t*(y1-y0)
}
