package tokenbucket

import (
	"fmt"
	"math"

	"cloudvar/internal/stats"
)

// Inferred holds token-bucket parameters recovered from a bandwidth
// trace, the analysis behind Figure 11: run iperf at full speed until
// the achieved bandwidth collapses and stabilises, then read off the
// high plateau, the low plateau, and the time the transition took.
type Inferred struct {
	// TimeToEmptySec is when the high→low transition occurred,
	// measured from trace start.
	TimeToEmptySec float64
	// HighGbps and LowGbps are the medians of the pre- and
	// post-transition plateaus.
	HighGbps float64
	LowGbps  float64
	// BudgetGbit is the implied bucket size: (high - refill) × time,
	// computed with the refill estimate below.
	BudgetGbit float64
	// RefillGbps is assumed, not fitted, unless the trace includes
	// rest periods; EC2's measured value is ~1.
	RefillGbps float64
	// ChangeIndex is the sample index of the detected changepoint.
	ChangeIndex int
}

// InferParams recovers token-bucket parameters from a full-speed
// bandwidth trace sampled every sampleSec seconds. refillGbps is the
// assumed replenish rate (pass 1 for EC2-like clouds; it only affects
// the budget estimate, not the plateaus).
//
// Detection is least-squares changepoint fitting: choose the split
// minimising the summed squared deviation of each side from its own
// mean. The split must leave at least three samples on each side and
// the plateaus must differ by at least 20% of the high value,
// otherwise ErrNoThrottle is returned.
func InferParams(trace []float64, sampleSec, refillGbps float64) (Inferred, error) {
	n := len(trace)
	if n < 8 {
		return Inferred{}, fmt.Errorf("tokenbucket: trace of %d samples too short to infer parameters", n)
	}
	if sampleSec <= 0 {
		return Inferred{}, fmt.Errorf("tokenbucket: non-positive sample interval %g", sampleSec)
	}

	// Prefix sums for O(n) changepoint search.
	prefix := make([]float64, n+1)
	prefixSq := make([]float64, n+1)
	for i, v := range trace {
		prefix[i+1] = prefix[i] + v
		prefixSq[i+1] = prefixSq[i] + v*v
	}
	sse := func(lo, hi int) float64 { // [lo, hi)
		cnt := float64(hi - lo)
		sum := prefix[hi] - prefix[lo]
		sumSq := prefixSq[hi] - prefixSq[lo]
		return sumSq - sum*sum/cnt
	}

	best := -1
	bestCost := math.Inf(1)
	for split := 3; split <= n-3; split++ {
		cost := sse(0, split) + sse(split, n)
		if cost < bestCost {
			bestCost = cost
			best = split
		}
	}
	if best < 0 {
		return Inferred{}, ErrNoThrottle
	}

	high := stats.Median(trace[:best])
	low := stats.Median(trace[best:])
	if high <= 0 || high-low < 0.2*high {
		return Inferred{}, ErrNoThrottle
	}

	inf := Inferred{
		TimeToEmptySec: float64(best) * sampleSec,
		HighGbps:       high,
		LowGbps:        low,
		RefillGbps:     refillGbps,
		ChangeIndex:    best,
	}
	inf.BudgetGbit = (high - refillGbps) * inf.TimeToEmptySec
	if inf.BudgetGbit < 0 {
		inf.BudgetGbit = 0
	}
	return inf, nil
}

// Probe is the Figure 11 probe: it drives a fresh bucket of p at full
// speed until well past depletion, for 1.5 × its time-to-empty but at
// least 600 s, in 10 s bins, and infers the bucket's parameters from
// that trace, assuming EC2's 1 Gbps refill.
func Probe(p Params) (Inferred, error) {
	b := MustNew(p)
	probeLen := p.TimeToEmpty() * 1.5
	if math.IsInf(probeLen, 1) || probeLen < 600 {
		probeLen = 600
	}
	series := make([]float64, int(probeLen/10))
	for i := range series {
		series[i] = b.Transfer(1e12, 10) / 10
	}
	return InferParams(series, 10, 1)
}

// InstanceSpec describes one EC2 c5-family instance type's nominal
// token-bucket parameters, with the incarnation-to-incarnation
// variation the paper observed ("these parameters are not always
// consistent for multiple incarnations of the same instance type",
// including the August 2019 appearance of 5 Gbps-capped c5.xlarge
// NICs).
type InstanceSpec struct {
	Name   string
	Params Params
	// HighJitterFrac and BudgetJitterFrac are the relative spreads
	// applied when incarnating a concrete VM.
	HighJitterFrac   float64
	BudgetJitterFrac float64
	// AltHighGbps, when non-zero, is an alternative high rate some
	// incarnations receive (the 5 Gbps c5.xlarge behaviour), with
	// probability AltHighProb.
	AltHighGbps float64
	AltHighProb float64
}

// C5Family returns the c5.* catalog used for Figure 11. Budgets are
// derived from the paper's time-to-empty observations (~10 minutes for
// c5.xlarge at a 9 Gbps net drain) and scale roughly with instance
// size, as do the post-depletion low rates. Each flavour's refill rate
// equals its low rate: the paper observes that transmitting at the cap
// keeps the bucket from refilling, which requires low >= refill, and
// measured ~1 Gbit/s for the xlarge.
func C5Family() []InstanceSpec {
	return []InstanceSpec{
		{
			Name: "c5.large",
			Params: Params{
				BudgetGbit: 2700, RefillGbps: 0.5, HighGbps: 10, LowGbps: 0.5,
			},
			HighJitterFrac: 0.03, BudgetJitterFrac: 0.15,
		},
		{
			Name: "c5.xlarge",
			Params: Params{
				BudgetGbit: 5400, RefillGbps: 1, HighGbps: 10, LowGbps: 1,
			},
			HighJitterFrac: 0.03, BudgetJitterFrac: 0.15,
			AltHighGbps: 5, AltHighProb: 0.25,
		},
		{
			Name: "c5.2xlarge",
			Params: Params{
				BudgetGbit: 16000, RefillGbps: 2, HighGbps: 10, LowGbps: 2,
			},
			HighJitterFrac: 0.03, BudgetJitterFrac: 0.12,
		},
		{
			Name: "c5.4xlarge",
			Params: Params{
				BudgetGbit: 48000, RefillGbps: 4, HighGbps: 10, LowGbps: 4,
			},
			HighJitterFrac: 0.03, BudgetJitterFrac: 0.10,
		},
	}
}

// jitterer is the subset of simrand.Source the incarnation needs;
// declared locally so this package does not import simrand (keeps the
// dependency graph flat and lets tests stub randomness).
type jitterer interface {
	Normal(mean, stddev float64) float64
	Float64() float64
}

// Incarnate samples a concrete VM's parameters from the spec,
// reproducing the incarnation variance in Figure 11's error bars.
func (s InstanceSpec) Incarnate(src jitterer) Params {
	p := s.Params
	if s.AltHighGbps > 0 && src.Float64() < s.AltHighProb {
		p.HighGbps = s.AltHighGbps
	}
	if s.HighJitterFrac > 0 {
		p.HighGbps *= 1 + src.Normal(0, s.HighJitterFrac)
	}
	if s.BudgetJitterFrac > 0 {
		p.BudgetGbit *= 1 + src.Normal(0, s.BudgetJitterFrac)
	}
	if p.HighGbps < p.LowGbps {
		p.HighGbps = p.LowGbps
	}
	if p.BudgetGbit < 0 {
		p.BudgetGbit = 0
	}
	return p
}
