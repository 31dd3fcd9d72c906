// Package confirm implements the CONFIRM analysis of Maricq et
// al. (OSDI '18), which the paper applies in Figures 13 and 19: given
// a sequence of experiment repetitions, track the nonparametric
// confidence interval of the median (or another quantile) as
// repetitions accumulate, determine how many repetitions are needed
// before the interval fits within a target error bound, and detect the
// pathological case where more repetitions *widen* the interval —
// the signature of broken independence (a depleting token bucket).
//
// The analysis comes in two forms: AnalyzeQuantile consumes a complete
// measurement sequence at once (the post-hoc reporting path), and
// Tracker accepts measurements one at a time (the fleet scheduler's
// sequential-stopping path). Both produce identical Points for
// identical inputs — Tracker is the primitive, AnalyzeQuantile a loop
// over it.
package confirm

import (
	"fmt"
	"math"

	"cloudvar/internal/stats"
)

// Point is the CI state after the first N measurements.
type Point struct {
	N      int
	Median float64
	// Lo and Hi bound the CI; NaN when N is too small for the
	// requested confidence.
	Lo, Hi float64
	// RelErr is the CI half-width relative to the estimate; +Inf when
	// the CI is unachievable.
	RelErr float64
	// WithinBound reports RelErr <= the analysis error bound.
	WithinBound bool
}

// Analysis is a full CONFIRM trace over a measurement sequence.
type Analysis struct {
	// Quantile analysed (0.5 for medians).
	Quantile float64
	// Confidence of the intervals (e.g. 0.95).
	Confidence float64
	// ErrorBound is the target relative error (Figure 13 uses 1%,
	// Figure 19 uses 10%).
	ErrorBound float64
	Points     []Point
	// ConvergedAt is the smallest N whose interval fits the bound and
	// never leaves it again within the observed sequence; -1 if never.
	ConvergedAt int
}

// validateParams checks the analysis parameters shared by Tracker and
// AnalyzeQuantile.
func validateParams(q, conf, errBound float64) error {
	if q <= 0 || q >= 1 {
		return fmt.Errorf("confirm: quantile %g outside (0,1)", q)
	}
	if conf <= 0 || conf >= 1 {
		return fmt.Errorf("confirm: confidence %g outside (0,1)", conf)
	}
	if errBound <= 0 {
		return fmt.Errorf("confirm: error bound %g must be positive", errBound)
	}
	return nil
}

// Tracker is the incremental CONFIRM analysis: measurements arrive one
// at a time (stats.Sample.Push keeps the sample sorted in place) and
// the CI trace grows a Point per measurement from the second on. It is
// the primitive the fleet scheduler's sequential-stopping policy polls
// between batches; AnalyzeQuantile is a loop over it, so the two paths
// can never drift apart.
type Tracker struct {
	quantile   float64
	confidence float64
	errBound   float64
	sample     stats.Sample
	points     []Point
}

// NewTracker starts an empty incremental analysis for the given
// quantile, confidence and target relative-error bound.
func NewTracker(q, conf, errBound float64) (*Tracker, error) {
	if err := validateParams(q, conf, errBound); err != nil {
		return nil, err
	}
	return &Tracker{quantile: q, confidence: conf, errBound: errBound}, nil
}

// Push appends one measurement in arrival order. From the second
// measurement on, every Push records a new Point.
func (t *Tracker) Push(x float64) {
	t.sample.Push(x)
	n := t.sample.N()
	if n < 2 {
		return
	}
	pt := Point{N: n, Median: t.sample.Quantile(t.quantile)}
	iv, err := t.sample.QuantileCI(t.quantile, t.confidence)
	if err != nil {
		pt.Lo, pt.Hi = math.NaN(), math.NaN()
		pt.RelErr = math.Inf(1)
	} else {
		pt.Lo, pt.Hi = iv.Lo, iv.Hi
		pt.RelErr = iv.RelativeError()
		pt.WithinBound = pt.RelErr <= t.errBound
	}
	t.points = append(t.points, pt)
}

// Latest returns the most recent Point; ok is false before the second
// measurement. Latest.WithinBound is the sequential-stopping signal:
// the CI over everything seen so far fits the bound.
func (t *Tracker) Latest() (Point, bool) {
	if len(t.points) == 0 {
		return Point{}, false
	}
	return t.points[len(t.points)-1], true
}

// Analysis snapshots the trace so far as a full Analysis, computing
// ConvergedAt over the observed sequence. The Points slice is shared
// with the tracker (it only ever grows) — callers must not mutate it.
func (t *Tracker) Analysis() Analysis {
	return Analysis{
		Quantile:    t.quantile,
		Confidence:  t.confidence,
		ErrorBound:  t.errBound,
		Points:      t.points,
		ConvergedAt: convergedAt(t.points),
	}
}

// convergedAt finds the first N after which the bound holds for the
// rest of the observed sequence; -1 if never.
func convergedAt(points []Point) int {
	for i := range points {
		if !points[i].WithinBound {
			continue
		}
		holds := true
		for j := i; j < len(points); j++ {
			if !points[j].WithinBound {
				holds = false
				break
			}
		}
		if holds {
			return points[i].N
		}
	}
	return -1
}

// Analyze runs CONFIRM over the measurement sequence in arrival order
// for the median.
func Analyze(measurements []float64, conf, errBound float64) (Analysis, error) {
	return AnalyzeQuantile(measurements, 0.5, conf, errBound)
}

// AnalyzeQuantile runs CONFIRM for an arbitrary quantile.
func AnalyzeQuantile(measurements []float64, q, conf, errBound float64) (Analysis, error) {
	if len(measurements) < 2 {
		return Analysis{}, fmt.Errorf("confirm: need at least 2 measurements, got %d: %w",
			len(measurements), stats.ErrInsufficientData)
	}
	t, err := NewTracker(q, conf, errBound)
	if err != nil {
		return Analysis{}, err
	}
	t.points = make([]Point, 0, len(measurements)-1)
	for _, x := range measurements {
		t.Push(x)
	}
	return t.Analysis(), nil
}

// FinalPoint returns the last analysis point, or the zero Point when
// the analysis holds none — which is exactly what callers have in hand
// after an AnalyzeQuantile error, so the zero value must not panic.
func (a Analysis) FinalPoint() Point {
	if len(a.Points) == 0 {
		return Point{}
	}
	return a.Points[len(a.Points)-1]
}

// MaxRequiredRepetitions is the ceiling on RequiredRepetitions'
// extrapolation. The c/sqrt(n) fit is a local model; solving it for a
// bound orders of magnitude below the achieved precision produces
// numbers no campaign will ever run (and, unclamped, float-to-int
// conversions that wrap negative). Predictions beyond the ceiling are
// reported as -1: "no useful prediction", same as no fit at all.
const MaxRequiredRepetitions = 1 << 20

// RequiredRepetitions predicts how many repetitions are needed to
// bring the CI within the error bound, by fitting the CI half-width to
// the c/sqrt(n) law that holds for iid samples and solving for n. If
// the analysis already converged it returns ConvergedAt. Returns -1
// when no finite-width interval was ever achieved, when the fit is
// degenerate, or when the prediction exceeds MaxRequiredRepetitions.
func (a Analysis) RequiredRepetitions() int {
	if a.ConvergedAt > 0 {
		return a.ConvergedAt
	}
	// Fit hw = c/sqrt(n) by least squares over points with finite
	// intervals: c = sum(hw_i / sqrt(n_i)) / sum(1/n_i).
	num, den := 0.0, 0.0
	var lastMedian float64
	seen := 0
	for _, pt := range a.Points {
		if math.IsInf(pt.RelErr, 1) || math.IsNaN(pt.Lo) {
			continue
		}
		hw := (pt.Hi - pt.Lo) / 2
		num += hw / math.Sqrt(float64(pt.N))
		den += 1 / float64(pt.N)
		lastMedian = pt.Median
		seen++
	}
	if seen < 3 || den == 0 || lastMedian == 0 {
		return -1
	}
	c := num / den
	target := a.ErrorBound * math.Abs(lastMedian)
	if target <= 0 {
		return -1
	}
	x := c / target
	pred := math.Ceil(x * x)
	// The comparison is done in float64 before the int conversion: a
	// huge (or NaN/Inf) prediction must never reach the conversion,
	// whose overflow behavior is implementation-defined.
	if !(pred <= MaxRequiredRepetitions) {
		return -1
	}
	n := int(pred)
	if last := a.FinalPoint().N; n < last {
		n = last
	}
	return n
}

// FiniteIntervals returns the number of points whose CI was achieved
// (finite bounds) — the points Diverging operates on.
// Zero means the sequence never reached the sample size the requested
// confidence needs: no statement about its width trend is possible,
// and Diverging's false is "no evidence", not "healthy".
func (a Analysis) FiniteIntervals() int {
	n := 0
	for _, pt := range a.Points {
		if !math.IsNaN(pt.Lo) {
			n++
		}
	}
	return n
}

// Diverging reports whether confidence intervals widen as repetitions
// accumulate — "unexpected for this type of analysis" (Figure 19) and
// diagnostic of non-iid repetitions. For iid data CI widths shrink
// like 1/sqrt(n), so the mean half-width of the last third of points
// sits well below the first third's; drifting data inverts the
// relationship. It walks the finite-width points in place. False
// means either a healthy trend or too few finite intervals (< 9) to
// judge — use FiniteIntervals to tell the two apart.
func (a Analysis) Diverging() bool {
	total := a.FiniteIntervals()
	if total < 9 {
		return false
	}
	third := total / 3
	earlySum, lateSum := 0.0, 0.0
	i := 0
	for _, pt := range a.Points {
		if math.IsNaN(pt.Lo) {
			continue
		}
		hw := (pt.Hi - pt.Lo) / 2
		if i < third {
			earlySum += hw
		}
		if i >= 2*third {
			lateSum += hw
		}
		i++
	}
	early := earlySum / float64(third)
	late := lateSum / float64(total-2*third)
	return late > early*1.15
}
