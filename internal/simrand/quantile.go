package simrand

import (
	"fmt"
	"math"
	"sort"
)

// QuantileDist is an empirical distribution specified by a set of
// (probability, value) knots, sampled by inverse-transform with linear
// interpolation between knots.
//
// This is exactly the information the paper has about the Ballani et al.
// clouds A-H (Figure 2): the 1st, 25th, 50th, 75th and 99th bandwidth
// percentiles. Section 2.1 notes that with only quartiles available and
// no autocovariance data, uniform sampling from the implied distribution
// is the defensible choice; QuantileDist encodes that choice.
type QuantileDist struct {
	probs  []float64
	values []float64
}

// NewQuantileDist builds a distribution from parallel slices of
// cumulative probabilities and values. Probabilities must be strictly
// increasing within [0, 1]; values must be non-decreasing.
func NewQuantileDist(probs, values []float64) (*QuantileDist, error) {
	if len(probs) != len(values) {
		return nil, fmt.Errorf("simrand: %d probs but %d values", len(probs), len(values))
	}
	if len(probs) < 2 {
		return nil, fmt.Errorf("simrand: need at least 2 knots, got %d", len(probs))
	}
	for i, p := range probs {
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("simrand: prob %g out of [0,1]", p)
		}
		if i > 0 {
			if p <= probs[i-1] {
				return nil, fmt.Errorf("simrand: probs not strictly increasing at index %d", i)
			}
			if values[i] < values[i-1] {
				return nil, fmt.Errorf("simrand: values decrease at index %d", i)
			}
		}
	}
	d := &QuantileDist{
		probs:  append([]float64(nil), probs...),
		values: append([]float64(nil), values...),
	}
	return d, nil
}

// MustQuantileDist is NewQuantileDist that panics on error; intended for
// package-level catalog literals whose validity is fixed at compile time.
func MustQuantileDist(probs, values []float64) *QuantileDist {
	d, err := NewQuantileDist(probs, values)
	if err != nil {
		panic(err)
	}
	return d
}

// Quantile returns the value at cumulative probability p in [0, 1],
// linearly interpolated between knots and clamped to the outer knots.
func (d *QuantileDist) Quantile(p float64) float64 {
	if math.IsNaN(p) {
		return math.NaN()
	}
	if p <= d.probs[0] {
		return d.values[0]
	}
	n := len(d.probs)
	if p >= d.probs[n-1] {
		return d.values[n-1]
	}
	// Find the first knot with prob >= p.
	i := sort.SearchFloat64s(d.probs, p)
	lo, hi := i-1, i
	span := d.probs[hi] - d.probs[lo]
	frac := (p - d.probs[lo]) / span
	return d.values[lo] + frac*(d.values[hi]-d.values[lo])
}

// Sample draws a variate via inverse-transform sampling.
func (d *QuantileDist) Sample(src *Source) float64 {
	return d.Quantile(src.Float64())
}

// Knots returns copies of the knot slices, useful for reporting.
func (d *QuantileDist) Knots() (probs, values []float64) {
	return append([]float64(nil), d.probs...), append([]float64(nil), d.values...)
}
