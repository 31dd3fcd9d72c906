package stats

import (
	"fmt"
	"math"
	"sort"
)

// MannWhitneyU tests the null hypothesis that two independent samples
// come from the same distribution (two-sided), using the normal
// approximation with tie correction and continuity correction. The
// paper (F5.4) cites Mann-Whitney [45] as the recommended check that
// one half of a measurement sequence is not stochastically larger than
// the other — a symptom of broken independence, exactly what depleting
// token buckets cause in Figure 19.
func MannWhitneyU(xs, ys []float64) (TestResult, error) {
	n1, n2 := len(xs), len(ys)
	res := TestResult{N: n1 + n2}
	if n1 < 2 || n2 < 2 {
		return res, fmt.Errorf("stats: Mann-Whitney needs both samples >= 2: %w", ErrInsufficientData)
	}

	type obs struct {
		v     float64
		group int
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range xs {
		all = append(all, obs{v, 0})
	}
	for _, v := range ys {
		all = append(all, obs{v, 1})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Midranks with tie accounting.
	n := len(all)
	ranks := make([]float64, n)
	tieCorrection := 0.0
	for i := 0; i < n; {
		j := i
		for j < n && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		t := float64(j - i)
		tieCorrection += t*t*t - t
		i = j
	}

	r1 := 0.0
	for i, o := range all {
		if o.group == 0 {
			r1 += ranks[i]
		}
	}
	u1 := r1 - float64(n1)*float64(n1+1)/2
	u2 := float64(n1)*float64(n2) - u1
	u := math.Min(u1, u2)
	res.Statistic = u

	mu := float64(n1) * float64(n2) / 2
	nf := float64(n)
	varU := float64(n1) * float64(n2) / 12 *
		((nf + 1) - tieCorrection/(nf*(nf-1)))
	if varU <= 0 {
		// All observations identical: no evidence against the null.
		res.PValue = 1
		return res, nil
	}
	// Continuity correction of 0.5 toward the mean.
	z := (u - mu + 0.5) / math.Sqrt(varU)
	res.PValue = 2 * NormalCDF(z)
	if res.PValue > 1 {
		res.PValue = 1
	}
	res.RejectAt05 = res.PValue < 0.05
	return res, nil
}

// IndependenceCheck splits a measurement sequence into first and second
// halves and runs Mann-Whitney between them. A rejection indicates the
// sequence drifts over time (repetitions are not identically
// distributed), which is the paper's Figure 19 pathology.
func IndependenceCheck(sequence []float64) (TestResult, error) {
	if len(sequence) < 4 {
		return TestResult{N: len(sequence)}, fmt.Errorf("stats: independence check needs >= 4 points: %w", ErrInsufficientData)
	}
	half := len(sequence) / 2
	return MannWhitneyU(sequence[:half], sequence[half:])
}

// ADFResult is the outcome of an augmented Dickey-Fuller unit-root test.
type ADFResult struct {
	Statistic float64 // t-statistic on the lagged level coefficient
	Lags      int
	N         int // effective observations in the regression
	// Stationary reports rejection of the unit-root null at 5%:
	// the series mean-reverts (is stationary) rather than wandering.
	Stationary bool
	// CriticalValues at 1%, 5%, 10% for the constant-only model,
	// interpolated for the effective sample size.
	CriticalValues [3]float64
}

// adfCriticalTable holds finite-sample critical values for the
// Dickey-Fuller distribution, constant-only model (Fuller 1976 /
// MacKinnon 1991). Rows: sample sizes; columns: 1%, 5%, 10%.
var adfCriticalTable = []struct {
	n  int
	cv [3]float64
}{
	{25, [3]float64{-3.75, -3.00, -2.63}},
	{50, [3]float64{-3.58, -2.93, -2.60}},
	{100, [3]float64{-3.51, -2.89, -2.58}},
	{250, [3]float64{-3.46, -2.88, -2.57}},
	{500, [3]float64{-3.44, -2.87, -2.57}},
	{1 << 30, [3]float64{-3.43, -2.86, -2.57}},
}

func adfCriticalValues(n int) [3]float64 {
	for i, row := range adfCriticalTable {
		if n <= row.n {
			if i == 0 {
				return row.cv
			}
			// Linear interpolation between neighbouring rows.
			prev := adfCriticalTable[i-1]
			if row.n >= 1<<30 {
				return row.cv
			}
			frac := float64(n-prev.n) / float64(row.n-prev.n)
			var cv [3]float64
			for j := range cv {
				cv[j] = prev.cv[j] + frac*(row.cv[j]-prev.cv[j])
			}
			return cv
		}
	}
	return adfCriticalTable[len(adfCriticalTable)-1].cv
}

// ADF runs an augmented Dickey-Fuller test with a constant (no trend):
//
//	Δy_t = α + γ·y_{t-1} + Σ β_i·Δy_{t-i} + ε_t
//
// The null hypothesis is γ = 0 (unit root, non-stationary). lags < 0
// selects Schwert's rule: floor(12·(T/100)^{1/4}). The paper (F5.4)
// cites Dickey-Fuller [22] as the stationarity check that must pass
// before time-aggregated statistics are trusted.
func ADF(series []float64, lags int) (ADFResult, error) {
	T := len(series)
	if lags < 0 {
		lags = int(12 * math.Pow(float64(T)/100, 0.25))
	}
	res := ADFResult{Lags: lags}
	// Need at least a handful of effective observations beyond the
	// regressors: T - 1 - lags rows, 2 + lags columns.
	rows := T - 1 - lags
	cols := 2 + lags
	if rows < cols+2 {
		return res, fmt.Errorf("stats: ADF needs more data (T=%d, lags=%d): %w", T, lags, ErrInsufficientData)
	}

	dy := make([]float64, T-1)
	for t := 1; t < T; t++ {
		dy[t-1] = series[t] - series[t-1]
	}

	// Design matrix: [1, y_{t-1}, Δy_{t-1}, ..., Δy_{t-lags}].
	X := make([][]float64, rows)
	y := make([]float64, rows)
	for r := 0; r < rows; r++ {
		t := lags + 1 + r // index into series for the dependent Δy_t
		row := make([]float64, cols)
		row[0] = 1
		row[1] = series[t-1]
		for i := 1; i <= lags; i++ {
			row[1+i] = dy[t-1-i]
		}
		X[r] = row
		y[r] = dy[t-1]
	}

	fit, err := OLS(X, y)
	if err != nil {
		return res, fmt.Errorf("stats: ADF regression failed: %w", err)
	}
	gamma := fit.Coefficients[1]
	se := fit.StdErrors[1]
	if se == 0 || math.IsNaN(se) {
		return res, fmt.Errorf("stats: ADF standard error degenerate (constant series?)")
	}
	res.Statistic = gamma / se
	res.N = rows
	res.CriticalValues = adfCriticalValues(rows)
	res.Stationary = res.Statistic < res.CriticalValues[1]
	return res, nil
}

// Autocorrelation returns the sample autocorrelation of xs at the
// given lag. Values near zero at small lags support treating
// measurements as independent; the token-bucket traces of Section 4.2
// show strong positive lag-1 autocorrelation instead.
func Autocorrelation(xs []float64, lag int) float64 {
	n := len(xs)
	if lag < 0 || lag >= n || n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - m
		den += d * d
	}
	if den == 0 {
		return math.NaN()
	}
	for i := 0; i < n-lag; i++ {
		num += (xs[i] - m) * (xs[i+lag] - m)
	}
	return num / den
}
