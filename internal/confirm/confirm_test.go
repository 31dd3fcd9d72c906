package confirm

import (
	"math"
	"testing"

	"cloudvar/internal/simrand"
)

func iidSample(seed uint64, n int, mean, sd float64) []float64 {
	src := simrand.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = src.Normal(mean, sd)
	}
	return xs
}

func TestAnalyzeValidation(t *testing.T) {
	good := iidSample(1, 20, 100, 5)
	if _, err := Analyze([]float64{1}, 0.95, 0.01); err == nil {
		t.Error("single measurement should error")
	}
	if _, err := AnalyzeQuantile(good, 0, 0.95, 0.01); err == nil {
		t.Error("q=0 should error")
	}
	if _, err := AnalyzeQuantile(good, 0.5, 1, 0.01); err == nil {
		t.Error("conf=1 should error")
	}
	if _, err := AnalyzeQuantile(good, 0.5, 0.95, 0); err == nil {
		t.Error("zero bound should error")
	}
}

func TestAnalysisConvergesOnTightData(t *testing.T) {
	// Low-variance iid data: CI should fit within 1% of the median
	// well inside 100 repetitions (Figure 13's setting).
	xs := iidSample(2, 100, 100, 0.8)
	a, err := Analyze(xs, 0.95, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if a.ConvergedAt <= 0 {
		t.Fatalf("analysis did not converge: final %+v", a.FinalPoint())
	}
	if a.ConvergedAt > 100 {
		t.Errorf("converged at %d > 100", a.ConvergedAt)
	}
	if got := a.RequiredRepetitions(); got != a.ConvergedAt {
		t.Errorf("RequiredRepetitions = %d, want ConvergedAt %d", got, a.ConvergedAt)
	}
}

func TestHighVarianceNeedsManyRepetitions(t *testing.T) {
	// The paper's headline for Figure 13: with realistic variability,
	// 70+ repetitions may be needed for 1% bounds. High-CoV data must
	// not converge early.
	xs := iidSample(3, 30, 100, 20)
	a, err := Analyze(xs, 0.95, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if a.ConvergedAt > 0 && a.ConvergedAt < 30 {
		t.Errorf("noisy data converged suspiciously early at %d", a.ConvergedAt)
	}
	req := a.RequiredRepetitions()
	if req > 0 && req < 100 {
		t.Errorf("predicted %d repetitions; high-variance data should need many more", req)
	}
}

func TestRequiredRepetitionsExtrapolates(t *testing.T) {
	xs := iidSample(4, 40, 100, 10)
	a, err := Analyze(xs, 0.95, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	req := a.RequiredRepetitions()
	if req <= 40 && a.ConvergedAt <= 0 {
		t.Errorf("extrapolation returned %d, want > observed 40", req)
	}
	// Tighter bound needs more repetitions than looser bound.
	loose, err := Analyze(xs, 0.95, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	reqLoose := loose.RequiredRepetitions()
	if reqLoose > 0 && req > 0 && reqLoose > req {
		t.Errorf("10%% bound needs %d reps but 1%% bound needs %d", reqLoose, req)
	}
}

func TestEarlyPointsUnachievable(t *testing.T) {
	xs := iidSample(5, 20, 100, 5)
	a, err := Analyze(xs, 0.95, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// n=2..5 cannot support a 95% median CI (min is 6).
	for _, pt := range a.Points {
		if pt.N < 6 {
			if !math.IsNaN(pt.Lo) || !math.IsInf(pt.RelErr, 1) {
				t.Errorf("n=%d should have unachievable CI: %+v", pt.N, pt)
			}
		}
		if pt.N >= 6 && math.IsNaN(pt.Lo) {
			t.Errorf("n=%d should have a CI", pt.N)
		}
	}
}

func TestDivergingDetectsBrokenIID(t *testing.T) {
	// Figure 19's Q65 pathology: each repetition depletes shared
	// budget, runtimes drift upward, CIs widen.
	src := simrand.New(6)
	drifting := make([]float64, 50)
	for i := range drifting {
		drifting[i] = 40 + float64(i)*2 + src.Normal(0, 1)
	}
	a, err := Analyze(drifting, 0.95, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Diverging() {
		t.Error("drifting sequence not flagged as diverging")
	}

	// Q82's benign case: stable iid, CIs shrink.
	stable := iidSample(7, 50, 70, 3)
	b, err := Analyze(stable, 0.95, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if b.Diverging() {
		t.Error("stable sequence flagged as diverging")
	}
}

// widthSeries returns the (n, half-width) pairs of the analysis points
// whose CI was achievable.
func widthSeries(a Analysis) (ns []int, halfWidths []float64) {
	for _, pt := range a.Points {
		if math.IsNaN(pt.Lo) {
			continue
		}
		ns = append(ns, pt.N)
		halfWidths = append(halfWidths, (pt.Hi-pt.Lo)/2)
	}
	return ns, halfWidths
}

func TestWidthSeries(t *testing.T) {
	xs := iidSample(8, 30, 100, 5)
	a, err := Analyze(xs, 0.95, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	ns, widths := widthSeries(a)
	if len(ns) != len(widths) || len(ns) == 0 {
		t.Fatalf("width series lengths: %d, %d", len(ns), len(widths))
	}
	for i, w := range widths {
		if w < 0 || math.IsNaN(w) {
			t.Errorf("width[%d] = %g", i, w)
		}
	}
	// First achievable n is 6.
	if ns[0] != 6 {
		t.Errorf("first CI at n=%d, want 6", ns[0])
	}
}

func TestAnalyzeQuantileTail(t *testing.T) {
	// Tail quantiles need more samples: first achievable p90 CI at
	// n=29 (cf. stats.MinSamplesForQuantileCI).
	xs := iidSample(9, 60, 100, 5)
	a, err := AnalyzeQuantile(xs, 0.9, 0.95, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ns, _ := widthSeries(a)
	if len(ns) == 0 || ns[0] < 25 || ns[0] > 35 {
		t.Errorf("first p90 CI at n=%v, want ~29", ns)
	}
}

func TestDivergingNeedsEnoughPoints(t *testing.T) {
	xs := iidSample(10, 10, 100, 5)
	a, err := Analyze(xs, 0.95, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if a.Diverging() {
		t.Error("too-short analysis cannot be declared diverging")
	}
}
