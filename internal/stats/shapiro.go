package stats

import (
	"fmt"
	"math"
	"sort"
)

// TestResult is the outcome of a hypothesis test.
type TestResult struct {
	Statistic float64
	PValue    float64
	N         int
	// RejectAt05 is a convenience: true when PValue < 0.05, i.e. the
	// null hypothesis is rejected at the conventional level.
	RejectAt05 bool
}

// ShapiroWilk tests the null hypothesis that xs is drawn from a normal
// distribution, using Royston's AS R94 approximation (valid for
// 3 <= n <= 5000). The paper (F5.4) recommends testing samples for
// normality [54] before applying parametric statistics; when the test
// rejects, nonparametric methods (order-statistic CIs) must be used.
func ShapiroWilk(xs []float64) (TestResult, error) {
	n := len(xs)
	res := TestResult{N: n}
	if n < 3 {
		return res, fmt.Errorf("stats: Shapiro-Wilk needs n >= 3, got %d: %w", n, ErrInsufficientData)
	}
	if n > 5000 {
		return res, fmt.Errorf("stats: Shapiro-Wilk approximation invalid for n > 5000 (n=%d)", n)
	}
	x := append([]float64(nil), xs...)
	sort.Float64s(x)
	if x[0] == x[n-1] {
		return res, fmt.Errorf("stats: Shapiro-Wilk undefined for constant sample")
	}

	// Expected values of normal order statistics (Blom approximation).
	m := make([]float64, n)
	ssm := 0.0
	for i := 0; i < n; i++ {
		m[i] = NormalQuantile((float64(i+1) - 0.375) / (float64(n) + 0.25))
		ssm += m[i] * m[i]
	}
	rsn := math.Sqrt(ssm)

	// Weights with Royston's polynomial corrections to the last one or
	// two coefficients.
	a := make([]float64, n)
	u := 1 / math.Sqrt(float64(n))
	if n > 5 {
		an := m[n-1]/rsn + u*(0.221157+u*(-0.147981+u*(-2.071190+u*(4.434685+u*(-2.617272)))))
		an1 := m[n-2]/rsn + u*(0.042981+u*(-0.293762+u*(-1.752461+u*(5.682633+u*(-3.582633)))))
		phi := (ssm - 2*m[n-1]*m[n-1] - 2*m[n-2]*m[n-2]) /
			(1 - 2*an*an - 2*an1*an1)
		a[n-1], a[n-2] = an, an1
		a[0], a[1] = -an, -an1
		for i := 2; i < n-2; i++ {
			a[i] = m[i] / math.Sqrt(phi)
		}
	} else {
		an := m[n-1]/rsn + u*(0.221157+u*(-0.147981+u*(-2.071190+u*(4.434685+u*(-2.617272)))))
		a[n-1] = an
		a[0] = -an
		if n > 3 {
			phi := (ssm - 2*m[n-1]*m[n-1]) / (1 - 2*an*an)
			for i := 1; i < n-1; i++ {
				a[i] = m[i] / math.Sqrt(phi)
			}
		}
	}

	mean := Mean(x)
	num, den := 0.0, 0.0
	for i := 0; i < n; i++ {
		num += a[i] * x[i]
		d := x[i] - mean
		den += d * d
	}
	w := num * num / den
	if w > 1 {
		w = 1
	}
	res.Statistic = w

	// P-value per Royston 1995.
	switch {
	case n == 3:
		const stqr = 1.047198 // asin(sqrt(3/4))
		p := 6 / math.Pi * (math.Asin(math.Sqrt(w)) - stqr)
		if p < 0 {
			p = 0
		}
		res.PValue = p
	case n <= 11:
		fn := float64(n)
		g := -2.273 + 0.459*fn
		mu := 0.5440 - 0.39978*fn + 0.025054*fn*fn - 0.0006714*fn*fn*fn
		sigma := math.Exp(1.3822 - 0.77857*fn + 0.062767*fn*fn - 0.0020322*fn*fn*fn)
		wStat := -math.Log(g - math.Log(1-w))
		z := (wStat - mu) / sigma
		res.PValue = 1 - NormalCDF(z)
	default:
		ln := math.Log(float64(n))
		mu := 0.0038915*ln*ln*ln - 0.083751*ln*ln - 0.31082*ln - 1.5861
		sigma := math.Exp(0.0030302*ln*ln - 0.082676*ln - 0.4803)
		wStat := math.Log(1 - w)
		z := (wStat - mu) / sigma
		res.PValue = 1 - NormalCDF(z)
	}
	res.RejectAt05 = res.PValue < 0.05
	return res, nil
}
