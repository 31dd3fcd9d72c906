package sketch

import (
	"math"
	"sort"
	"testing"

	"cloudvar/internal/simrand"
	"cloudvar/internal/stats"
)

// The property suite: prove the committed contract (contract.json)
// against exact answers over adversarial distributions. Every bound
// asserted here is read from the committed contract, never hard-coded — loosening
// the sketch without updating the contract file, or tightening the file
// without fixing the sketch, fails this suite.

// distribution generates the i-th observation of a named shape.
type distribution struct {
	name string
	gen  func(src *simrand.Source, i, n int) float64
}

// distributions are the adversarial shapes from the issue: smooth,
// skewed, multi-modal, heavy-tailed, degenerate, adversarially ordered,
// and NaN-laced inputs.
func distributions() []distribution {
	return []distribution{
		{"uniform", func(src *simrand.Source, _, _ int) float64 {
			return src.Uniform(0, 100)
		}},
		{"lognormal", func(src *simrand.Source, _, _ int) float64 {
			return src.LogNormal(1.5, 0.8)
		}},
		{"bimodal", func(src *simrand.Source, _, _ int) float64 {
			if src.Bernoulli(0.5) {
				return src.Normal(2, 0.3)
			}
			return src.Normal(9, 0.5)
		}},
		{"pareto", func(src *simrand.Source, _, _ int) float64 {
			return src.Pareto(1, 1.2)
		}},
		{"constant", func(_ *simrand.Source, _, _ int) float64 {
			return 4.25
		}},
		{"sorted", func(_ *simrand.Source, i, _ int) float64 {
			return float64(i)
		}},
		{"reversed", func(_ *simrand.Source, i, n int) float64 {
			return float64(n - i)
		}},
		{"nan-laced", func(src *simrand.Source, i, _ int) float64 {
			if i%7 == 3 {
				return math.NaN()
			}
			return src.Uniform(-50, 50)
		}},
	}
}

// quantileProbes are the probabilities the pipeline actually queries
// (the Summary percentiles) plus a dense sweep for good measure.
var quantileProbes = []float64{
	0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999,
	0.02, 0.33, 0.42, 0.61, 0.77, 0.88,
}

// rankError measures the rank error of estimate est for probability p
// against the exact sorted sample: zero when p falls inside the
// estimate's true rank interval [#{x<est}/n, #{x<=est}/n], otherwise
// the distance to the nearer edge.
func rankError(sorted []float64, p, est float64) float64 {
	n := len(sorted)
	lo := sort.SearchFloat64s(sorted, est)                            // #{x < est}
	hi := sort.Search(n, func(i int) bool { return sorted[i] > est }) // #{x <= est}
	rLo := float64(lo) / float64(n)
	rHi := float64(hi) / float64(n)
	switch {
	case p < rLo:
		return rLo - p
	case p > rHi:
		return p - rHi
	}
	return 0
}

// finiteSorted draws n observations from d, returning them in arrival
// order and as a sorted finite-only slice.
func drawn(d distribution, seed string, n int) (arrival, sorted []float64) {
	src := simrand.New(20107).Substream(seed)
	arrival = make([]float64, n)
	for i := range arrival {
		arrival[i] = d.gen(src, i, n)
	}
	for _, x := range arrival {
		if !math.IsNaN(x) {
			sorted = append(sorted, x)
		}
	}
	sort.Float64s(sorted)
	return arrival, sorted
}

// TestQuantileContract is the headline property: on every distribution
// and size, every probed quantile's rank error stays within the
// committed allowance.
func TestQuantileContract(t *testing.T) {
	c := committed
	for _, d := range distributions() {
		for _, n := range []int{10, 1_000, 100_000} {
			d, n := d, n
			t.Run(d.name, func(t *testing.T) {
				arrival, sorted := drawn(d, "contract/"+d.name, n)
				var q Quantile
				for _, x := range arrival {
					q.Add(x)
				}
				if q.N() != len(sorted) {
					t.Fatalf("N = %d, want %d finite", q.N(), len(sorted))
				}
				q.flush()
				if got := len(q.means); got > c.MaxCentroids {
					t.Fatalf("centroids = %d exceeds contract cap %d", got, c.MaxCentroids)
				}
				if q.Min() != sorted[0] || q.Max() != sorted[len(sorted)-1] {
					t.Fatalf("min/max = %v/%v, want exact %v/%v",
						q.Min(), q.Max(), sorted[0], sorted[len(sorted)-1])
				}
				allow := c.MaxRankError(len(sorted))
				for _, p := range quantileProbes {
					est := q.Quantile(p)
					if math.IsNaN(est) {
						t.Fatalf("Quantile(%v) = NaN over finite data", p)
					}
					if err := rankError(sorted, p, est); err > allow {
						t.Errorf("n=%d p=%v: rank error %.5f > allowance %.5f (est %v)",
							n, p, err, allow, est)
					}
				}
			})
		}
	}
}

// TestStreamSummaryMoments: Stream's moments are exact (vs stats.Sample
// to float tolerance) and its quantiles obey the contract, so swapping
// the exact path for Stream only perturbs quantiles within epsilon.
func TestStreamSummaryMoments(t *testing.T) {
	c := committed
	for _, d := range distributions() {
		d := d
		t.Run(d.name, func(t *testing.T) {
			const n = 10_000
			arrival, sorted := drawn(d, "stream/"+d.name, n)
			var st Stream
			for _, x := range arrival {
				st.Add(x)
			}
			got := st.Summary()
			want := stats.Summarize(sorted)
			if got.N != want.N {
				t.Fatalf("N = %d, want %d", got.N, want.N)
			}
			approxEq := func(name string, g, w float64) {
				if math.IsNaN(g) != math.IsNaN(w) {
					t.Errorf("%s: got %v, want %v", name, g, w)
					return
				}
				if math.IsNaN(w) {
					return
				}
				scale := math.Max(math.Abs(w), 1e-12)
				if math.Abs(g-w)/scale > 1e-9 {
					t.Errorf("%s: got %v, want %v", name, g, w)
				}
			}
			approxEq("Mean", got.Mean, want.Mean)
			approxEq("StdDev", got.StdDev, want.StdDev)
			approxEq("CoV", got.CoV, want.CoV)
			approxEq("Min", got.Min, want.Min)
			approxEq("Max", got.Max, want.Max)
			allow := c.MaxRankError(len(sorted))
			for _, pq := range []struct {
				p float64
				v float64
			}{
				{0.01, got.P01}, {0.25, got.P25}, {0.50, got.Median},
				{0.75, got.P75}, {0.90, got.P90}, {0.99, got.P99},
			} {
				if err := rankError(sorted, pq.p, pq.v); err > allow {
					t.Errorf("P%02.0f: rank error %.5f > %.5f", pq.p*100, err, allow)
				}
			}
		})
	}
}

// TestSketchDeterminism: identical observation sequences yield
// bit-identical quantile answers — the property the fleet's
// byte-identity guarantees rest on.
func TestSketchDeterminism(t *testing.T) {
	arrival, _ := drawn(distributions()[1], "determinism", 30_000)
	var a, b Quantile
	for _, x := range arrival {
		a.Add(x)
	}
	for _, x := range arrival {
		b.Add(x)
	}
	for _, p := range quantileProbes {
		if av, bv := a.Quantile(p), b.Quantile(p); av != bv {
			t.Fatalf("Quantile(%v): %v != %v for identical inputs", p, av, bv)
		}
	}
}

// TestEdgeCases pins the boundary behaviour downstream code relies on.
func TestEdgeCases(t *testing.T) {
	var q Quantile // zero value must work
	if !math.IsNaN(q.Quantile(0.5)) {
		t.Error("empty sketch quantile should be NaN")
	}
	q.Add(math.NaN())
	if q.N() != 0 || !math.IsNaN(q.Quantile(0.5)) {
		t.Errorf("NaN-only: N=%d, want 0 and a NaN quantile", q.N())
	}
	q.Add(3.5)
	for _, p := range []float64{0, 0.5, 1} {
		if got := q.Quantile(p); got != 3.5 {
			t.Errorf("single value Quantile(%v) = %v, want 3.5", p, got)
		}
	}
	if !math.IsNaN(q.Quantile(-0.1)) || !math.IsNaN(q.Quantile(1.1)) || !math.IsNaN(q.Quantile(math.NaN())) {
		t.Error("out-of-range p should be NaN")
	}
	q.Reset()
	if q.N() != 0 || !math.IsNaN(q.Quantile(0.5)) {
		t.Error("Reset did not empty the sketch")
	}

	var s Stream
	sum := s.Summary()
	if sum.N != 0 || !math.IsNaN(sum.Median) {
		t.Errorf("empty stream summary = %+v", sum)
	}
}

// BenchmarkSketchPush pins the steady-state insert cost: 0 allocs/op
// once the buffers have grown (benchgate gates this).
func BenchmarkSketchPush(b *testing.B) {
	src := simrand.New(5).Substream("bench")
	xs := make([]float64, 8192)
	for i := range xs {
		xs[i] = src.LogNormal(1.2, 0.7)
	}
	var q Quantile
	for _, x := range xs { // warm the buffers past steady state
		q.Add(x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Add(xs[i&8191])
	}
	_ = q.Quantile(0.5)
}

// BenchmarkStreamSummary measures a full cell-summary query.
func BenchmarkStreamSummary(b *testing.B) {
	src := simrand.New(6).Substream("bench-summary")
	var s Stream
	for i := 0; i < 100_000; i++ {
		s.Add(src.LogNormal(1.2, 0.7))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Summary()
	}
}
