package stats

import (
	"fmt"
	"testing"

	"cloudvar/internal/simrand"
)

// Quantile/CI computation runs once per campaign cell and once per
// drift group — with the scenario engine multiplying cells, it is the
// statistics layer's hot path. Stable names + sized sub-benchmarks
// keep the results benchstat-comparable across commits:
//
//	go test ./internal/stats -run '^$' -bench BenchmarkStats -count 10

func benchSample(n int) []float64 {
	src := simrand.New(3)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = src.Normal(100, 15)
	}
	return xs
}

// BenchmarkStatsQuantile measures the single-quantile path as the
// pipeline now runs it: a reused Sample re-loaded with fresh data per
// call (one sort, zero steady-state allocation). The one-shot package
// function costs the same plus one buffer allocation.
func BenchmarkStatsQuantile(b *testing.B) {
	for _, n := range []int{32, 1024, 65536} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			xs := benchSample(n)
			var s Sample
			s.Reset(xs) // warm the buffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Reset(xs)
				if v := s.Quantile(0.5); v <= 0 {
					b.Fatal("bad quantile")
				}
			}
		})
	}
}

// BenchmarkStatsPercentiles measures the batched path (one sort, many
// quantiles) with a reused Sample and destination buffer.
func BenchmarkStatsPercentiles(b *testing.B) {
	for _, n := range []int{32, 1024, 65536} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			xs := benchSample(n)
			var s Sample
			s.Reset(xs)
			out := make([]float64, 0, 7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Reset(xs)
				out = s.Percentiles(out[:0], 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)
				if len(out) != 7 {
					b.Fatal("bad percentile batch")
				}
			}
		})
	}
}

// BenchmarkStatsSummarize measures the full per-cell Summary from a
// reused Sample.
func BenchmarkStatsSummarize(b *testing.B) {
	for _, n := range []int{60, 4096} { // 60 ≈ one emulated 10-minute cell
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			xs := benchSample(n)
			var smp Sample
			smp.Reset(xs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				smp.Reset(xs)
				if s := smp.Summary(); s.N != n {
					b.Fatal("bad summary")
				}
			}
		})
	}
}

// BenchmarkStatsMedianCI measures the order-statistic median CI the
// drift comparison recomputes per group per run.
func BenchmarkStatsMedianCI(b *testing.B) {
	for _, n := range []int{10, 50, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			xs := benchSample(n)
			var s Sample
			s.Reset(xs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Reset(xs)
				if _, err := s.MedianCI(0.95); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStatsQuantileCI measures the Le Boudec tail-quantile CI.
func BenchmarkStatsQuantileCI(b *testing.B) {
	for _, n := range []int{50, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			xs := benchSample(n)
			var s Sample
			s.Reset(xs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Reset(xs)
				if _, err := s.QuantileCI(0.9, 0.95); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStatsSamplePush measures incremental prefix growth — the
// CONFIRM pattern: each iteration builds an n-observation sample one
// Push at a time, querying the median after every insertion.
func BenchmarkStatsSamplePush(b *testing.B) {
	for _, n := range []int{50, 500} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			xs := benchSample(n)
			var s Sample
			s.Reset(xs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Reset(xs[:0])
				for _, x := range xs {
					s.Push(x)
					if v := s.Median(); v <= 0 {
						b.Fatal("bad median")
					}
				}
			}
		})
	}
}

// BenchmarkStatsSelectTail measures the per-class p99 the traffic path
// selects in every cell (workload.ClassTails): SelectQuantile over
// 1,000 latencies in a reused buffer, an order statistic the tail pass
// answers in one pass.
func BenchmarkStatsSelectTail(b *testing.B) {
	xs := benchSample(1000)
	buf := make([]float64, len(xs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, xs)
		if v := SelectQuantile(buf, 0.99); v <= 0 {
			b.Fatal("bad p99")
		}
	}
}
