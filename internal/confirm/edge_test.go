package confirm

import (
	"fmt"
	"math"
	"testing"

	"cloudvar/internal/simrand"
)

// The zero-value Analysis is exactly what callers hold after an
// AnalyzeQuantile error; FinalPoint on it must return the zero Point,
// not panic with index out of range.
func TestFinalPointZeroValue(t *testing.T) {
	var a Analysis
	if got := a.FinalPoint(); got != (Point{}) {
		t.Errorf("zero-value FinalPoint = %+v, want zero Point", got)
	}
	// The rest of the read-only surface must hold on the zero value too.
	if got := a.RequiredRepetitions(); got != -1 {
		t.Errorf("zero-value RequiredRepetitions = %d, want -1", got)
	}
	if a.Diverging() {
		t.Error("zero-value Analysis reported diverging")
	}
	if got := a.FiniteIntervals(); got != 0 {
		t.Errorf("zero-value FiniteIntervals = %d, want 0", got)
	}
}

// syntheticFit builds an analysis whose finite-width points all share
// one half-width and median, so the c/sqrt(n) fit constant is
// computable in closed form for boundary tests.
func syntheticFit(hw, median, errBound float64) (Analysis, float64) {
	a := Analysis{Quantile: 0.5, Confidence: 0.95, ErrorBound: errBound, ConvergedAt: -1}
	num, den := 0.0, 0.0
	for n := 6; n <= 8; n++ {
		a.Points = append(a.Points, Point{
			N: n, Median: median,
			Lo: median - hw, Hi: median + hw,
			RelErr: hw / median,
		})
		num += hw / math.Sqrt(float64(n))
		den += 1 / float64(n)
	}
	return a, num / den
}

func TestRequiredRepetitionsCeiling(t *testing.T) {
	const median = 100.0
	// Pick error bounds that put the closed-form prediction just inside
	// and just beyond the documented ceiling.
	_, c := syntheticFit(5, median, 1)
	within, _ := syntheticFit(5, median, c/(median*math.Sqrt(float64(MaxRequiredRepetitions)*0.99)))
	if got := within.RequiredRepetitions(); got <= 0 || got > MaxRequiredRepetitions {
		t.Errorf("prediction inside the ceiling = %d, want in (0, %d]", got, MaxRequiredRepetitions)
	}
	beyond, _ := syntheticFit(5, median, c/(median*math.Sqrt(float64(MaxRequiredRepetitions)*1.01)))
	if got := beyond.RequiredRepetitions(); got != -1 {
		t.Errorf("prediction beyond the ceiling = %d, want -1", got)
	}
	// An absurdly tight bound overflows x*x to +Inf — before the clamp,
	// int(math.Ceil(Inf)) wrapped negative on 64-bit.
	absurd, _ := syntheticFit(5, median, 1e-300)
	if got := absurd.RequiredRepetitions(); got != -1 {
		t.Errorf("overflowed prediction = %d, want -1", got)
	}
}

// Diverging must distinguish "no finite intervals at all" from a
// healthy shrinking trend: both return false, and FiniteIntervals is
// the tiebreaker the stopping policy consults.
func TestDivergingAllNaNVersusConverging(t *testing.T) {
	// Only unachievable points: every CI is NaN.
	var allNaN Analysis
	for n := 2; n <= 20; n++ {
		allNaN.Points = append(allNaN.Points, Point{
			N: n, Median: 50, Lo: math.NaN(), Hi: math.NaN(), RelErr: math.Inf(1),
		})
	}
	if allNaN.Diverging() {
		t.Error("all-NaN analysis reported diverging")
	}
	if got := allNaN.FiniteIntervals(); got != 0 {
		t.Errorf("all-NaN FiniteIntervals = %d, want 0", got)
	}

	stable, err := Analyze(iidSample(21, 50, 70, 3), 0.95, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if stable.Diverging() {
		t.Error("converging analysis reported diverging")
	}
	if got := stable.FiniteIntervals(); got == 0 {
		t.Error("converging analysis reported no finite intervals")
	}
}

func TestConstantSeries(t *testing.T) {
	xs := make([]float64, 20)
	for i := range xs {
		xs[i] = 42
	}
	a, err := Analyze(xs, 0.95, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// A constant series has zero-width CIs from the first achievable n
	// (6 at 95%) — instant convergence, zero relative error.
	if a.ConvergedAt != 6 {
		t.Errorf("constant series converged at %d, want 6", a.ConvergedAt)
	}
	fp := a.FinalPoint()
	if fp.RelErr != 0 || !fp.WithinBound || fp.Lo != 42 || fp.Hi != 42 {
		t.Errorf("constant series final point = %+v, want zero-width CI at 42", fp)
	}
	if a.Diverging() {
		t.Error("constant series reported diverging")
	}
}

func TestNaNLacedMeasurements(t *testing.T) {
	xs := iidSample(22, 30, 100, 5)
	xs[3], xs[17] = math.NaN(), math.NaN()
	a, err := Analyze(xs, 0.95, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Points) != len(xs)-1 {
		t.Fatalf("got %d points, want %d", len(a.Points), len(xs)-1)
	}
	// NaN measurements shift the order statistics (stats.Sample sorts
	// NaN first); the analysis must stay total — no panics, one point
	// per measurement from the second on, in arrival order.
	for i, pt := range a.Points {
		if pt.N != i+2 {
			t.Fatalf("point %d has N=%d, want %d", i, pt.N, i+2)
		}
	}
	// And the incremental path must agree on the laced input too.
	tr, err := NewTracker(0.5, 0.95, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		tr.Push(x)
	}
	if got, want := fmt.Sprintf("%+v", tr.Analysis()), fmt.Sprintf("%+v", a); got != want {
		t.Fatalf("tracker disagrees on NaN-laced input:\ntracker: %s\nbatch:   %s", got, want)
	}
}

func TestExactlyTwoMeasurements(t *testing.T) {
	a, err := Analyze([]float64{10, 12}, 0.95, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Points) != 1 {
		t.Fatalf("got %d points, want 1", len(a.Points))
	}
	fp := a.FinalPoint()
	if fp.N != 2 || !math.IsNaN(fp.Lo) || !math.IsInf(fp.RelErr, 1) {
		t.Errorf("n=2 point = %+v, want unachievable CI", fp)
	}
	if a.ConvergedAt != -1 {
		t.Errorf("ConvergedAt = %d, want -1", a.ConvergedAt)
	}
	if got := a.RequiredRepetitions(); got != -1 {
		t.Errorf("RequiredRepetitions = %d, want -1 (no finite intervals to fit)", got)
	}
}

// ConvergedAt is monotone non-increasing as the error bound grows: a
// looser bound can only be satisfied earlier (treating "never", -1, as
// +Inf). The within-bound set at a tighter bound is a subset of the
// looser bound's, so the first always-within suffix can only start
// later.
func TestConvergedAtMonotoneInErrorBound(t *testing.T) {
	bounds := []float64{0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5}
	for seed := uint64(1); seed <= 25; seed++ {
		src := simrand.New(seed)
		n := 10 + int(src.Uint64()%60)
		sd := 0.5 + 30*src.Float64()
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = src.Normal(100, sd)
		}
		prev := -1 // -1 as +Inf: the tightest bound may never converge
		for i, eb := range bounds {
			a, err := Analyze(xs, 0.95, eb)
			if err != nil {
				t.Fatal(err)
			}
			got := a.ConvergedAt
			if i > 0 {
				prevInf, gotInf := prev == -1, got == -1
				switch {
				case gotInf && !prevInf:
					t.Fatalf("seed %d: bound %g converged at %d but looser %g never did",
						seed, bounds[i-1], prev, eb)
				case !gotInf && !prevInf && got > prev:
					t.Fatalf("seed %d: ConvergedAt rose from %d to %d as bound loosened %g -> %g",
						seed, prev, got, bounds[i-1], eb)
				}
			}
			prev = got
		}
	}
}

// The incremental Tracker and the batch AnalyzeQuantile must produce
// identical analyses for identical inputs — the fleet's stopping
// decisions and the post-hoc reports may never disagree.
func TestTrackerMatchesAnalyzeQuantile(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		xs := iidSample(seed, 5+int(seed)*7, 100, float64(seed))
		want, err := AnalyzeQuantile(xs, 0.5, 0.95, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewTracker(0.5, 0.95, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range xs {
			tr.Push(x)
		}
		if tr.sample.N() != len(xs) {
			t.Fatalf("tracker N = %d, want %d", tr.sample.N(), len(xs))
		}
		got := tr.Analysis()
		// %+v compares NaN fields as text, which DeepEqual cannot.
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Fatalf("seed %d:\ntracker: %+v\nbatch:   %+v", seed, got, want)
		}
		latest, ok := tr.Latest()
		if !ok || fmt.Sprintf("%+v", latest) != fmt.Sprintf("%+v", want.FinalPoint()) {
			t.Fatalf("seed %d: Latest = %+v ok=%v, want %+v", seed, latest, ok, want.FinalPoint())
		}
	}
}

func TestTrackerValidation(t *testing.T) {
	if _, err := NewTracker(0, 0.95, 0.05); err == nil {
		t.Error("q=0 should error")
	}
	if _, err := NewTracker(0.5, 1, 0.05); err == nil {
		t.Error("conf=1 should error")
	}
	if _, err := NewTracker(0.5, 0.95, 0); err == nil {
		t.Error("zero bound should error")
	}
	tr, err := NewTracker(0.5, 0.95, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.Latest(); ok {
		t.Error("empty tracker has a latest point")
	}
	tr.Push(1)
	if _, ok := tr.Latest(); ok {
		t.Error("single-measurement tracker has a latest point")
	}
}
