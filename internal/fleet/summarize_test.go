package fleet

import (
	"fmt"
	"math"
	"testing"

	"cloudvar/internal/simrand"
	"cloudvar/internal/stats"
	"cloudvar/internal/trace"
)

// summaryBits lists a summary's count and the bits of its floats.
func summaryBits(s stats.Summary) []uint64 {
	out := []uint64{uint64(s.N)}
	for _, x := range []float64{s.Mean, s.StdDev, s.CoV, s.Min, s.P01, s.P25, s.Median, s.P75, s.P90, s.P99, s.Max} {
		out = append(out, math.Float64bits(x))
	}
	return out
}

// TestExactSummaryMatchesReset: exact mode gathers the bandwidth
// column straight into the worker's sample, and must summarise with
// the bits of a fresh Sample Reset to series.Bandwidths(), NaN, ±Inf
// and mixed ±0 columns included, through one scratch reused from cell
// to cell.
func TestExactSummaryMatchesReset(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	src := simrand.New(5)
	normal := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = src.Normal(5, 2)
		}
		return xs
	}
	withNaN := normal(300)
	for i := 0; i < len(withNaN); i += 13 {
		withNaN[i] = nan
	}
	withInf := normal(120)
	withInf[3], withInf[40], withInf[77] = inf, -inf, inf
	columns := [][]float64{
		normal(8640),
		{2.5},
		nil,
		withNaN,
		withInf,
		{0, negZero, 0, negZero, 1, -1, negZero, 0},
		{negZero, negZero, 0},
		{nan, nan},
		normal(60),
	}
	var scratch workerScratch
	for i, col := range columns {
		series := &trace.Series{Label: fmt.Sprint(i)}
		for j, bw := range col {
			series.Points = append(series.Points, trace.Point{TimeSec: float64(j), BandwidthGbps: bw})
		}
		sum := summarizeSeries(SummarizeExact, series, &scratch)
		got := summaryBits(sum)
		var fresh stats.Sample
		want := summaryBits(fresh.Reset(series.Bandwidths()).Summary())
		for k := range want {
			if got[k] != want[k] {
				t.Errorf("column %d: summary field %d has bits %#x, Reset gives %#x", i, k, got[k], want[k])
			}
		}
		// Reset and the gathering path share the moment capture, so
		// check it against the column summed in input order too.
		if m, sd := stats.Mean(col), stats.StdDev(col); !sameBits(sum.Mean, m) || !sameBits(sum.StdDev, sd) {
			t.Errorf("column %d: mean %v and sd %v, input order gives %v and %v", i, sum.Mean, sum.StdDev, m, sd)
		}
	}
}

// sameBits reports equal bits, or two NaNs.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}
