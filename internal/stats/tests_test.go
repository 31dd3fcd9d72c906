package stats

import (
	"math"
	"testing"

	"cloudvar/internal/simrand"
)

func TestShapiroWilkAcceptsNormal(t *testing.T) {
	src := simrand.New(101)
	rejections := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = src.Normal(10, 2)
		}
		res, err := ShapiroWilk(xs)
		if err != nil {
			t.Fatal(err)
		}
		if res.Statistic < 0.8 || res.Statistic > 1 {
			t.Errorf("W = %g outside plausible range for normal data", res.Statistic)
		}
		if res.RejectAt05 {
			rejections++
		}
	}
	// Expect ~5% type-I error; tolerate up to 20%.
	if rejections > trials/5 {
		t.Errorf("rejected normality %d/%d times on normal data", rejections, trials)
	}
}

func TestShapiroWilkRejectsExponential(t *testing.T) {
	src := simrand.New(103)
	rejections := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = src.Exponential(1)
		}
		res, err := ShapiroWilk(xs)
		if err != nil {
			t.Fatal(err)
		}
		if res.RejectAt05 {
			rejections++
		}
	}
	if rejections < trials*3/4 {
		t.Errorf("only rejected exponential data %d/%d times", rejections, trials)
	}
}

func TestShapiroWilkRejectsBimodal(t *testing.T) {
	// Token-bucket throttling produces bimodal runtimes (high-rate vs
	// low-rate phases); Shapiro-Wilk must flag these.
	src := simrand.New(105)
	xs := make([]float64, 80)
	for i := range xs {
		if i%2 == 0 {
			xs[i] = src.Normal(10, 0.5)
		} else {
			xs[i] = src.Normal(70, 0.5)
		}
	}
	res, err := ShapiroWilk(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.RejectAt05 {
		t.Errorf("failed to reject clearly bimodal sample: %v", res)
	}
}

func TestShapiroWilkErrors(t *testing.T) {
	if _, err := ShapiroWilk([]float64{1, 2}); err == nil {
		t.Error("n=2 should error")
	}
	if _, err := ShapiroWilk([]float64{5, 5, 5, 5}); err == nil {
		t.Error("constant sample should error")
	}
	big := make([]float64, 5001)
	for i := range big {
		big[i] = float64(i)
	}
	if _, err := ShapiroWilk(big); err == nil {
		t.Error("n>5000 should error")
	}
}

func TestShapiroWilkSmallN(t *testing.T) {
	// Exercise the n=3 exact branch and the 4<=n<=11 branch.
	res, err := ShapiroWilk([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 0 || res.PValue > 1 {
		t.Errorf("n=3 p-value %g out of range", res.PValue)
	}
	res, err = ShapiroWilk([]float64{1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 0 || res.PValue > 1 {
		t.Errorf("n=7 p-value %g out of range", res.PValue)
	}
}

func TestMannWhitneySameDistribution(t *testing.T) {
	src := simrand.New(201)
	rejections := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		xs := make([]float64, 30)
		ys := make([]float64, 30)
		for i := range xs {
			xs[i] = src.Normal(5, 1)
			ys[i] = src.Normal(5, 1)
		}
		res, err := MannWhitneyU(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		if res.RejectAt05 {
			rejections++
		}
	}
	if rejections > trials/5 {
		t.Errorf("type-I error too high: %d/%d", rejections, trials)
	}
}

func TestMannWhitneyShiftedDistribution(t *testing.T) {
	src := simrand.New(203)
	xs := make([]float64, 40)
	ys := make([]float64, 40)
	for i := range xs {
		xs[i] = src.Normal(5, 1)
		ys[i] = src.Normal(7, 1) // clearly shifted
	}
	res, err := MannWhitneyU(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !res.RejectAt05 {
		t.Errorf("failed to detect 2-sigma shift: %v", res)
	}
}

func TestMannWhitneyTies(t *testing.T) {
	// Heavily tied data must not blow up the variance computation.
	xs := []float64{1, 1, 1, 2, 2}
	ys := []float64{1, 2, 2, 2, 3}
	res, err := MannWhitneyU(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.PValue) || res.PValue < 0 || res.PValue > 1 {
		t.Errorf("tied-data p-value %g invalid", res.PValue)
	}
}

func TestMannWhitneyAllIdentical(t *testing.T) {
	res, err := MannWhitneyU([]float64{3, 3, 3}, []float64{3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue != 1 {
		t.Errorf("identical samples p = %g, want 1", res.PValue)
	}
}

func TestMannWhitneyErrors(t *testing.T) {
	if _, err := MannWhitneyU([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("n1=1 should error")
	}
}

func TestIndependenceCheckDetectsDrift(t *testing.T) {
	// A drifting sequence (like Figure 19's Q65 under a depleting
	// bucket) must be flagged.
	src := simrand.New(301)
	drifting := make([]float64, 60)
	for i := range drifting {
		drifting[i] = 10 + float64(i)*0.5 + src.Normal(0, 0.5)
	}
	res, err := IndependenceCheck(drifting)
	if err != nil {
		t.Fatal(err)
	}
	if !res.RejectAt05 {
		t.Errorf("failed to detect drift: %v", res)
	}

	stable := make([]float64, 60)
	for i := range stable {
		stable[i] = 10 + src.Normal(0, 0.5)
	}
	res, err = IndependenceCheck(stable)
	if err != nil {
		t.Fatal(err)
	}
	// Stable data should usually pass (can fail 5% of the time, but
	// with this seed it passes).
	if res.RejectAt05 {
		t.Errorf("flagged stable sequence as dependent: %v", res)
	}

	if _, err := IndependenceCheck([]float64{1, 2, 3}); err == nil {
		t.Error("too-short sequence should error")
	}
}

func TestADFStationarySeries(t *testing.T) {
	// AR(1) with coefficient 0.5: strongly stationary.
	src := simrand.New(401)
	n := 300
	series := make([]float64, n)
	for i := 1; i < n; i++ {
		series[i] = 0.5*series[i-1] + src.Normal(0, 1)
	}
	res, err := ADF(series, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stationary {
		t.Errorf("AR(0.5) not detected stationary: %v", res)
	}
}

func TestADFRandomWalk(t *testing.T) {
	// Random walk has a unit root: must NOT be called stationary.
	src := simrand.New(403)
	n := 300
	series := make([]float64, n)
	for i := 1; i < n; i++ {
		series[i] = series[i-1] + src.Normal(0, 1)
	}
	res, err := ADF(series, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stationary {
		t.Errorf("random walk flagged stationary: %v", res)
	}
}

func TestADFAutoLags(t *testing.T) {
	src := simrand.New(405)
	series := make([]float64, 200)
	for i := 1; i < len(series); i++ {
		series[i] = 0.3*series[i-1] + src.Normal(0, 1)
	}
	res, err := ADF(series, -1)
	if err != nil {
		t.Fatal(err)
	}
	wantLags := int(12 * math.Pow(200.0/100, 0.25))
	if res.Lags != wantLags {
		t.Errorf("auto lags = %d, want %d", res.Lags, wantLags)
	}
}

func TestADFErrors(t *testing.T) {
	if _, err := ADF([]float64{1, 2, 3}, 1); err == nil {
		t.Error("short series should error")
	}
	constant := make([]float64, 50)
	if _, err := ADF(constant, 1); err == nil {
		t.Error("constant series should error")
	}
}

func TestADFCriticalValueInterpolation(t *testing.T) {
	cv25 := adfCriticalValues(25)
	cv50 := adfCriticalValues(50)
	cv37 := adfCriticalValues(37)
	for i := 0; i < 3; i++ {
		if cv37[i] < cv25[i]-1e-9 || cv37[i] > cv50[i]+1e-9 {
			t.Errorf("interpolated cv[%d]=%g outside [%g, %g]", i, cv37[i], cv25[i], cv50[i])
		}
	}
	cvBig := adfCriticalValues(100000)
	if cvBig[1] != -2.86 {
		t.Errorf("asymptotic 5%% cv = %g, want -2.86", cvBig[1])
	}
}

func TestAutocorrelation(t *testing.T) {
	// Perfectly alternating series: lag-1 autocorrelation near -1.
	alt := make([]float64, 100)
	for i := range alt {
		alt[i] = float64(i % 2)
	}
	if r := Autocorrelation(alt, 1); r > -0.9 {
		t.Errorf("alternating lag-1 autocorr = %g, want near -1", r)
	}
	if r := Autocorrelation(alt, 2); r < 0.9 {
		t.Errorf("alternating lag-2 autocorr = %g, want near +1", r)
	}
	if r := Autocorrelation(alt, 0); math.Abs(r-1) > 1e-12 {
		t.Errorf("lag-0 autocorr = %g, want 1", r)
	}
	if !math.IsNaN(Autocorrelation(alt, -1)) || !math.IsNaN(Autocorrelation(alt, 100)) {
		t.Error("out-of-range lag should be NaN")
	}
	if !math.IsNaN(Autocorrelation([]float64{5, 5, 5}, 1)) {
		t.Error("constant series autocorr should be NaN")
	}
}

func TestOLSExactFit(t *testing.T) {
	// y = 2 + 3x fits exactly.
	X := [][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}}
	y := []float64{2, 5, 8, 11}
	fit, err := OLS(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Coefficients[0], 2, 1e-9) || !almostEqual(fit.Coefficients[1], 3, 1e-9) {
		t.Errorf("coefficients = %v, want [2 3]", fit.Coefficients)
	}
	if fit.RSS > 1e-15 {
		t.Errorf("RSS = %g for exact fit", fit.RSS)
	}
	if !almostEqual(fit.R2, 1, 1e-9) {
		t.Errorf("R2 = %g for exact fit", fit.R2)
	}
}

func TestOLSRecoverySlopeNoise(t *testing.T) {
	src := simrand.New(501)
	n := 200
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x := float64(i) / 10
		X[i] = []float64{1, x}
		y[i] = 4 + 1.5*x + src.Normal(0, 0.5)
	}
	fit, err := OLS(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Coefficients[1]-1.5) > 0.05 {
		t.Errorf("slope = %g, want ~1.5", fit.Coefficients[1])
	}
	if fit.StdErrors[1] <= 0 {
		t.Errorf("slope std error = %g", fit.StdErrors[1])
	}
}

func TestOLSErrors(t *testing.T) {
	if _, err := OLS(nil, nil); err == nil {
		t.Error("empty input should error")
	}
	if _, err := OLS([][]float64{{1, 0}, {0, 1}}, []float64{1, 2}); err == nil {
		t.Error("n <= k should error")
	}
	// Collinear columns.
	X := [][]float64{{1, 2}, {2, 4}, {3, 6}, {4, 8}}
	if _, err := OLS(X, []float64{1, 2, 3, 4}); err == nil {
		t.Error("singular design should error")
	}
	if _, err := OLS([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("ragged rows should error")
	}
}

func TestCohenKappa(t *testing.T) {
	// Perfect agreement.
	a := []string{"x", "y", "x", "z"}
	k, err := CohenKappa(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(k, 1, 1e-12) {
		t.Errorf("perfect agreement kappa = %g", k)
	}

	// Known worked example: 2x2 with po=0.7, pe=0.5 -> kappa=0.4.
	r1 := []int{1, 1, 1, 1, 1, 0, 0, 0, 0, 0}
	r2 := []int{1, 1, 1, 0, 0, 0, 0, 0, 1, 1}
	// agreements: idx0,1,2 (1=1), idx5,6,7 (0=0), disagreements 4.
	// po = 7/10? count: idx0(1,1)a idx1(1,1)a idx2(1,1)a idx3(1,0)d
	// idx4(1,0)d idx5(0,0)a idx6(0,0)a idx7(0,0)a idx8(0,1)d idx9(0,1)d
	// po = 6/10. pA(1)=0.5, pB(1)=0.5 -> pe = 0.5. kappa = 0.2.
	k, err = CohenKappa(r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(k, 0.2, 1e-12) {
		t.Errorf("kappa = %g, want 0.2", k)
	}
}

func TestCohenKappaErrors(t *testing.T) {
	if _, err := CohenKappa([]int{1}, []int{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := CohenKappa[int](nil, nil); err == nil {
		t.Error("empty should error")
	}
	// Single identical label: defined as 1 by convention.
	k, err := CohenKappa([]int{7, 7}, []int{7, 7})
	if err != nil || k != 1 {
		t.Errorf("uniform identical labels: k=%g err=%v", k, err)
	}
}

func TestKappaInterpretation(t *testing.T) {
	cases := []struct {
		k    float64
		want string
	}{
		{-0.1, "less than chance agreement"},
		{0.1, "slight agreement"},
		{0.3, "fair agreement"},
		{0.5, "moderate agreement"},
		{0.7, "substantial agreement"},
		{0.95, "almost perfect agreement"},
	}
	for _, c := range cases {
		if got := KappaInterpretation(c.k); got != c.want {
			t.Errorf("KappaInterpretation(%g) = %q, want %q", c.k, got, c.want)
		}
	}
}

func BenchmarkMedianCI(b *testing.B) {
	xs := normalSample(1, 50, 100, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = MedianCI(xs, 0.95)
	}
}

func BenchmarkQuantile(b *testing.B) {
	xs := normalSample(2, 10000, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Quantile(xs, 0.9)
	}
}

func BenchmarkShapiroWilk(b *testing.B) {
	xs := normalSample(3, 100, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = ShapiroWilk(xs)
	}
}
