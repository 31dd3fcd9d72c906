package stats

import (
	"fmt"
	"math"
	"sort"

	"cloudvar/internal/simrand"
)

// Interval is a two-sided confidence interval around a point estimate.
type Interval struct {
	Estimate   float64
	Lo, Hi     float64
	Confidence float64 // nominal level, e.g. 0.95
	N          int     // sample size the interval was computed from
}

// HalfWidth returns half the interval width.
func (iv Interval) HalfWidth() float64 { return (iv.Hi - iv.Lo) / 2 }

// RelativeError returns the CI half-width as a fraction of the point
// estimate — the convergence criterion used by CONFIRM analyses
// (Figures 13 and 19 test against 1% and 10% bounds). Returns +Inf
// when the estimate is zero.
func (iv Interval) RelativeError() float64 {
	if iv.Estimate == 0 {
		return math.Inf(1)
	}
	return iv.HalfWidth() / math.Abs(iv.Estimate)
}

// Contains reports whether x lies inside the interval (inclusive).
// Figure 3 marks low-repetition medians as inaccurate when they fall
// outside the gold-standard 50-run interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// QuantileCI computes a nonparametric (distribution-free, asymmetric)
// confidence interval for the q-quantile of the distribution underlying
// xs, following the binomial order-statistic method of Le Boudec
// ("Performance Evaluation of Computer and Communication Systems",
// Thm 2.1), which the paper uses for both medians (Figure 3a) and the
// 90th percentile (Figure 3b).
//
// The number of samples below the true q-quantile is Binomial(n, q);
// the interval [X(l), X(u)] (1-based order statistics) covers the true
// quantile with probability BinomialCDF(u-1) - BinomialCDF(l-1), so we
// pick l as large and u as small as possible while keeping each tail's
// uncovered probability at most (1-conf)/2.
//
// An error is returned when n is too small for the requested confidence
// (e.g. n=3 cannot support a 95% median CI; the paper makes exactly
// this point in Figure 3's caption).
func QuantileCI(xs []float64, q, conf float64) (Interval, error) {
	var s Sample
	s.loadSorted(xs)
	return s.QuantileCI(q, conf)
}

// errQuantileRange, errConfidenceRange and errCIUnachievable are
// shared by the package-level CI functions and the Sample methods so
// both paths report identical errors.
func errQuantileRange(q float64) error {
	return fmt.Errorf("stats: quantile %g outside (0,1)", q)
}

func errConfidenceRange(conf float64) error {
	return fmt.Errorf("stats: confidence %g outside (0,1)", conf)
}

func errCIUnachievable(n int, conf, q float64) error {
	return fmt.Errorf("stats: n=%d too small for %g%% CI on q=%g: %w",
		n, conf*100, q, ErrInsufficientData)
}

// quantileOrderIndices returns 1-based order-statistic indices (l, u)
// such that [X(l), X(u)] covers the q-quantile with confidence at
// least 1-alpha, splitting alpha evenly between tails. For n > 100 a
// normal approximation to the binomial is used (as Le Boudec suggests);
// otherwise exact binomial tail sums.
func quantileOrderIndices(n int, q, alpha float64) (l, u int, ok bool) {
	if n > 100 {
		z := NormalQuantile(1 - alpha/2)
		mu := float64(n) * q
		sigma := math.Sqrt(float64(n) * q * (1 - q))
		l = int(math.Floor(mu - z*sigma))
		u = int(math.Ceil(mu+z*sigma)) + 1
		if l < 1 {
			l = 1
		}
		if u > n {
			u = n
		}
		if l >= u {
			return 0, 0, false
		}
		return l, u, true
	}
	// Exact: coverage of [X(l), X(u)] is P(l <= B <= u-1) =
	// BinomialCDF(u-1) - BinomialCDF(l-1), where B ~ Binomial(n, q)
	// counts samples below the true quantile. First try to give each
	// tail alpha/2; when a tail cannot meet its half even at the
	// extreme order statistic (common for tail quantiles, e.g. the
	// p90 of n=30), fall back to the extreme and grant the other tail
	// the remaining risk budget — the asymmetric allocation Le Boudec
	// permits.
	half := alpha / 2
	upperLoss := func(u int) float64 { return 1 - BinomialCDF(n, q, u-1) }
	lowerLoss := func(l int) float64 { return BinomialCDF(n, q, l-1) }

	u = n
	for cand := n; cand >= 1; cand-- {
		if upperLoss(cand) <= half {
			u = cand
		} else {
			break
		}
	}
	// Lower index gets whatever risk the upper tail left unused.
	lowerBudget := alpha - upperLoss(u)
	l = 1
	for cand := 1; cand <= n; cand++ {
		if lowerLoss(cand) <= lowerBudget {
			l = cand
		} else {
			break
		}
	}
	if l >= u {
		return 0, 0, false
	}
	// Verify achieved coverage; the loops above are conservative but
	// double-check the extreme-order-statistic corner (coverage of
	// [X(1), X(n)] is 1 - q^n - (1-q)^n, which can still miss alpha).
	coverage := BinomialCDF(n, q, u-1) - BinomialCDF(n, q, l-1)
	if coverage < 1-alpha-1e-12 {
		return 0, 0, false
	}
	return l, u, true
}

// MedianCI is QuantileCI at q = 0.5.
func MedianCI(xs []float64, conf float64) (Interval, error) {
	return QuantileCI(xs, 0.5, conf)
}

// MinSamplesForQuantileCI returns the smallest sample size for which a
// two-sided nonparametric CI at the given quantile and confidence is
// achievable at all (i.e. [X(1), X(n)] has enough coverage). For the
// median at 95% this is 6; the 3-run experiments common in the surveyed
// literature cannot produce a valid CI.
func MinSamplesForQuantileCI(q, conf float64) int {
	alpha := 1 - conf
	for n := 2; n <= 100000; n++ {
		cover := 1 - math.Pow(q, float64(n)) - math.Pow(1-q, float64(n))
		if cover >= 1-alpha {
			return n
		}
	}
	return -1
}

// BootstrapCI computes a percentile-bootstrap confidence interval for
// an arbitrary statistic. It exists as the ablation comparator for the
// order-statistic method (BenchmarkAblationCIMethod): the binomial
// method needs no resampling and is what the paper uses, but bootstrap
// generalises to statistics without order-statistic theory.
func BootstrapCI(xs []float64, statistic func([]float64) float64, conf float64, resamples int, src *simrand.Source) (Interval, error) {
	n := len(xs)
	iv := Interval{Confidence: conf, N: n}
	if n < 2 {
		return iv, ErrInsufficientData
	}
	if resamples < 10 {
		return iv, fmt.Errorf("stats: %d bootstrap resamples is too few", resamples)
	}
	iv.Estimate = statistic(xs)
	stats := make([]float64, resamples)
	resample := make([]float64, n)
	for r := 0; r < resamples; r++ {
		for i := range resample {
			resample[i] = xs[src.Intn(n)]
		}
		stats[r] = statistic(resample)
	}
	sort.Float64s(stats)
	alpha := 1 - conf
	iv.Lo = QuantileSorted(stats, alpha/2)
	iv.Hi = QuantileSorted(stats, 1-alpha/2)
	return iv, nil
}
