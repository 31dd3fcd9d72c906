// Package stats implements the statistical machinery the paper's
// methodology depends on: descriptive summaries, quantiles,
// nonparametric confidence intervals for medians and tail quantiles
// (Le Boudec's binomial order-statistic method), bootstrap intervals,
// Cohen's Kappa for inter-rater agreement, and the hypothesis tests the
// paper recommends running on performance samples (Shapiro-Wilk
// normality, Mann-Whitney independence-of-halves, augmented
// Dickey-Fuller stationarity).
//
// All functions are pure and deterministic; anything requiring
// randomness (bootstrap) takes an explicit *simrand.Source.
package stats

import (
	"errors"
	"math"
)

// ErrInsufficientData is returned when a computation needs more samples
// than were provided.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance, or NaN when
// fewer than two samples are given.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CoefficientOfVariation returns the ratio of the sample standard
// deviation to the mean, as a fraction (not percent). The paper plots
// this for the EC2 access regimes in Figure 6. Returns NaN when the
// mean is zero or there are fewer than two samples.
func CoefficientOfVariation(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 || math.IsNaN(m) {
		return math.NaN()
	}
	return StdDev(xs) / math.Abs(m)
}

// Welford accumulates streaming mean and variance without storing the
// samples. The zero value is ready to use. It is the right tool for the
// week-long 10-second-binned traces of Section 3, where storing every
// point in memory for summary statistics would be wasteful.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Mean returns the running mean, or NaN before any observation.
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the running unbiased variance, or NaN before two
// observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the running standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// CoV returns the running coefficient of variation (fractional).
func (w *Welford) CoV() float64 {
	m := w.Mean()
	if m == 0 || math.IsNaN(m) {
		return math.NaN()
	}
	return w.StdDev() / math.Abs(m)
}

// Summary is a five-number-plus summary of a sample, the statistical
// fingerprint the paper says every cloud experiment report should
// include (F2.2: mean or median alone is under-specification).
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	CoV    float64 // fractional coefficient of variation
	Min    float64
	P01    float64 // 1st percentile (box-whisker lower whisker in the paper's figures)
	P25    float64
	Median float64
	P75    float64
	P90    float64
	P99    float64 // 99th percentile (upper whisker)
	Max    float64
}

// Summarize computes a Summary of xs. It copies and sorts internally;
// loops that summarise many slices should Reset a Sample instead.
func Summarize(xs []float64) Summary {
	var s Sample
	return s.Reset(xs).Summary()
}

// IQR returns the interquartile range of the sample.
func IQR(xs []float64) float64 {
	return Quantile(xs, 0.75) - Quantile(xs, 0.25)
}
