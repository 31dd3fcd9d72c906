package workload

import (
	"math"
	"testing"

	"cloudvar/internal/simrand"
	"cloudvar/internal/stats"
)

// TestStreamNonDecreasing: every client stream is non-decreasing in
// time, for every arrival process, rate and seed. cloudmodel.RunWorkload
// merges the streams instead of sorting them and relies on this:
// stochastic gaps are non-negative, and Arrival.Validate refuses a
// trace time that decreases.
func TestStreamNonDecreasing(t *testing.T) {
	clients := []Client{
		{ID: "poisson", RateFraction: 1, Arrival: Arrival{Process: Poisson}},
		{ID: "gamma-bursty", RateFraction: 1, Arrival: Arrival{Process: Gamma, CV: 4}},
		{ID: "gamma-regular", RateFraction: 1, Arrival: Arrival{Process: Gamma, CV: 0.2}},
		{ID: "weibull-heavy", RateFraction: 1, Arrival: Arrival{Process: Weibull, Shape: 0.3}},
		{ID: "weibull-regular", RateFraction: 1, Arrival: Arrival{Process: Weibull, Shape: 3}},
		{ID: "trace", RateFraction: 1, Arrival: Arrival{Process: Trace, Times: []float64{0, 0, 0.5, 0.5, 0.5, 2, 7.25, 7.25, 299.9, 300, 301}}},
	}
	for _, c := range clients {
		if err := c.Arrival.Validate(); err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		for seed := uint64(1); seed <= 20; seed++ {
			for _, rps := range []float64{0.5, 4, 50} {
				src := simrand.New(seed).Substream("client/" + c.ID)
				ts := c.Stream(rps, 300, src, nil)
				for i := 1; i < len(ts); i++ {
					if ts[i] < ts[i-1] {
						t.Fatalf("%s seed %d at %g rps: arrival %d (%g s) precedes arrival %d (%g s)",
							c.ID, seed, rps, i, ts[i], i-1, ts[i-1])
					}
				}
			}
		}
	}
}

// TestClassTailsMatchClassLatencies: ClassTails answers each class's
// p99 with the bits of stats.Quantile over its ClassLatencies entry and
// counts the same requests, skips classes that served nothing, and
// allocates nothing once its scratch is warm.
func TestClassTailsMatchClassLatencies(t *testing.T) {
	src := simrand.New(5)
	lats := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = src.Exponential(0.05)
		}
		return out
	}
	cells := []*CellMetrics{
		{Clients: []ClientMetrics{
			{ID: "a", Class: "interactive", LatencyMs: lats(300)},
			{ID: "b", Class: "batch", LatencyMs: lats(40)},
			{ID: "c", Class: "interactive", LatencyMs: lats(7)},
			{ID: "d", Class: "idle", LatencyMs: []float64{}},
			{ID: "e", Class: "idle", LatencyMs: nil},
			{ID: "f", Class: "batch", LatencyMs: lats(1)},
		}},
		{Clients: []ClientMetrics{{ID: "solo", Class: DefaultClass, LatencyMs: lats(1)}}},
		{Clients: []ClientMetrics{{ID: "empty", Class: DefaultClass}}},
		{},
	}
	var s TailScratch
	for ci, m := range cells {
		want := m.ClassLatencies()
		seen := 0
		for _, tail := range m.ClassTails(&s) {
			pooled, ok := want[tail.Class]
			if !ok || len(pooled) == 0 {
				t.Fatalf("cell %d: ClassTails reports class %q, which served nothing", ci, tail.Class)
			}
			if tail.Requests != len(pooled) {
				t.Errorf("cell %d class %s: %d requests, want %d", ci, tail.Class, tail.Requests, len(pooled))
			}
			if w := stats.Quantile(pooled, 0.99); math.Float64bits(tail.P99) != math.Float64bits(w) {
				t.Errorf("cell %d class %s: p99 %v, stats.Quantile gives %v", ci, tail.Class, tail.P99, w)
			}
			seen++
		}
		nonEmpty := 0
		for _, pooled := range want {
			if len(pooled) > 0 {
				nonEmpty++
			}
		}
		if seen != nonEmpty {
			t.Errorf("cell %d: %d class tails, want %d", ci, seen, nonEmpty)
		}
	}
	if got := cells[0].ClassTails(&s)[0].Class; got != "interactive" {
		t.Errorf("first class tail is %q, want the first client's class", got)
	}
	if allocs := testing.AllocsPerRun(10, func() { cells[0].ClassTails(&s) }); allocs != 0 {
		t.Errorf("ClassTails with a warm scratch allocates %v times, want 0", allocs)
	}
}
