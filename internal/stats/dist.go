package stats

import "math"

// NormalCDF returns the standard normal cumulative distribution
// function evaluated at z.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalQuantile returns the inverse of the standard normal CDF using
// Acklam's rational approximation (relative error < 1.15e-9), refined
// by one Halley step. Returns -Inf/+Inf at p = 0/1 and NaN outside
// [0, 1].
func NormalQuantile(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	}

	// Coefficients for Acklam's approximation.
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}

	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}

	// One Halley refinement step for near-machine precision.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// BinomialPMF returns P(X = k) for X ~ Binomial(n, p), computed in log
// space for numerical stability at large n.
func BinomialPMF(n int, p float64, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	lg := func(x float64) float64 {
		v, _ := math.Lgamma(x)
		return v
	}
	logPMF := lg(float64(n+1)) - lg(float64(k+1)) - lg(float64(n-k+1)) +
		float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
	return math.Exp(logPMF)
}

// BinomialCDF returns P(X <= k) for X ~ Binomial(n, p).
func BinomialCDF(n int, p float64, k int) float64 {
	if k < 0 {
		return 0
	}
	if k >= n {
		return 1
	}
	// Sum from the tail with fewer terms for efficiency.
	sum := 0.0
	for i := 0; i <= k; i++ {
		sum += BinomialPMF(n, p, i)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}
