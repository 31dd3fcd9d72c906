package sketch

import (
	"math"

	"cloudvar/internal/stats"
)

// Stream is the drop-in bounded-memory replacement for buffering a
// cell's bandwidths into a stats.Sample: exact incremental moments
// (Welford) plus the quantile sketch, exposed through the same
// stats.Summary the exact pipeline produces. Memory is O(1) in
// observation count; N/Mean/StdDev/CoV/Min/Max are exact, the interior
// quantiles (P01..P99) carry the committed rank-error contract.
//
// The zero value is ready to use. Not safe for concurrent use.
type Stream struct {
	q Quantile
	w stats.Welford
}

// Reset empties the stream, keeping internal buffers for reuse.
func (s *Stream) Reset() {
	s.q.Reset()
	s.w = stats.Welford{}
}

// Add absorbs one observation. NaN is excluded from moments and
// quantiles, matching how the exact pipeline's Summary treats an
// all-finite series.
func (s *Stream) Add(x float64) {
	s.q.Add(x)
	if !math.IsNaN(x) {
		s.w.Add(x)
	}
}

// Summary renders the stream as the pipeline's stats.Summary: the same
// shape the exact path emits, so downstream grouping, reporting, and
// storage are agnostic to how the summary was computed.
func (s *Stream) Summary() stats.Summary {
	n := s.q.N()
	if n == 0 {
		nan := math.NaN()
		return stats.Summary{
			Mean: nan, StdDev: nan, CoV: nan,
			Min: nan, P01: nan, P25: nan, Median: nan,
			P75: nan, P90: nan, P99: nan, Max: nan,
		}
	}
	return stats.Summary{
		N:      n,
		Mean:   s.w.Mean(),
		StdDev: s.w.StdDev(),
		CoV:    s.w.CoV(),
		Min:    s.q.Min(),
		P01:    s.q.Quantile(0.01),
		P25:    s.q.Quantile(0.25),
		Median: s.q.Quantile(0.50),
		P75:    s.q.Quantile(0.75),
		P90:    s.q.Quantile(0.90),
		P99:    s.q.Quantile(0.99),
		Max:    s.q.Max(),
	}
}
