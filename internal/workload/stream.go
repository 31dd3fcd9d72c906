package workload

import (
	"math"

	"cloudvar/internal/simrand"
	"cloudvar/internal/stats"
)

// Stream generates the client's request arrival times over
// [0, durationSec), appending to dst and returning it. Arrivals are
// strictly derived from src: equal (spec, duration, substream) inputs
// give byte-identical streams, which is the determinism contract the
// fleet's workers=1-vs-8 property extends to per-client traffic.
//
// The mean inter-arrival gap is 1/(aggregateRPS × RateFraction) for
// the stochastic processes; Trace clients replay their recorded times
// verbatim (clipped to the duration) and never consume src.
func (c Client) Stream(aggregateRPS, durationSec float64, src *simrand.Source, dst []float64) []float64 {
	if c.Arrival.Process == Trace {
		for _, t := range c.Arrival.Times {
			if t >= durationSec {
				break
			}
			dst = append(dst, t)
		}
		return dst
	}
	rate := aggregateRPS * c.RateFraction
	if rate <= 0 || durationSec <= 0 {
		return dst
	}
	now := 0.0
	for {
		now += c.Arrival.gap(rate, src)
		if now >= durationSec {
			return dst
		}
		dst = append(dst, now)
	}
}

// gap samples one inter-arrival gap with mean 1/rate.
func (a Arrival) gap(rate float64, src *simrand.Source) float64 {
	switch a.Process {
	case Poisson:
		return src.Exponential(rate)
	case Gamma:
		// Shape k = 1/CV² and scale 1/(rate·k) give mean 1/rate and
		// coefficient of variation CV.
		k := 1 / (a.CV * a.CV)
		return src.Gamma(k, 1/(rate*k))
	case Weibull:
		// Scale λ = 1/(rate·Γ(1+1/k)) normalises the mean to 1/rate.
		scale := 1 / (rate * math.Gamma(1+1/a.Shape))
		return src.Weibull(a.Shape, scale)
	default:
		panic("workload: gap called on non-stochastic arrival " + a.Process)
	}
}

// ClientMetrics is one client's served traffic over one campaign cell.
type ClientMetrics struct {
	// ID and Class identify the client within its spec.
	ID    string `json:"id"`
	Class string `json:"class"`
	// LatencyMs is the per-request end-to-end latency (queueing +
	// transfer + RTT) in arrival order; its length is the request
	// count.
	LatencyMs []float64 `json:"latency_ms"`
}

// CellMetrics is the workload outcome of one campaign cell: every
// client's latency series, in spec declaration order. It round-trips
// through JSON exactly (float64s re-encode shortest), so stored cells
// restore bit-identically.
type CellMetrics struct {
	Clients []ClientMetrics `json:"clients"`
}

// Requests counts served requests across all clients.
func (m *CellMetrics) Requests() int {
	n := 0
	for _, c := range m.Clients {
		n += len(c.LatencyMs)
	}
	return n
}

// ClassLatencies groups the latency samples by SLO class, preserving
// client order within a class.
func (m *CellMetrics) ClassLatencies() map[string][]float64 {
	out := make(map[string][]float64)
	for _, c := range m.Clients {
		out[c.Class] = append(out[c.Class], c.LatencyMs...)
	}
	return out
}

// ClassTail is one SLO class's tail over one cell: the p99 of its
// requests' latencies and how many requests it served.
type ClassTail struct {
	Class    string
	P99      float64
	Requests int
}

// TailScratch holds the buffers behind CellMetrics.ClassTails. The
// zero value is ready; one TailScratch serves any number of cells.
type TailScratch struct {
	lats  []float64
	tails []ClassTail
}

// ClassTails returns, for each SLO class that served a request, the
// p99 of the class's pooled latencies (stats.Quantile of its
// ClassLatencies entry, bit for bit) and its request count, in order of
// the class's first client. The latencies are gathered into s and the
// p99 selected there, so a reused s allocates nothing; the result
// aliases s and is valid until s is used again.
func (m *CellMetrics) ClassTails(s *TailScratch) []ClassTail {
	s.tails = s.tails[:0]
	for i, c := range m.Clients {
		if m.classBefore(i, c.Class) {
			continue
		}
		s.lats = s.lats[:0]
		for _, o := range m.Clients[i:] {
			if o.Class == c.Class {
				s.lats = append(s.lats, o.LatencyMs...)
			}
		}
		if len(s.lats) == 0 {
			continue
		}
		s.tails = append(s.tails, ClassTail{Class: c.Class, P99: stats.SelectQuantile(s.lats, 0.99), Requests: len(s.lats)})
	}
	return s.tails
}

// classBefore reports whether a client before index i has the class.
func (m *CellMetrics) classBefore(i int, class string) bool {
	for _, c := range m.Clients[:i] {
		if c.Class == class {
			return true
		}
	}
	return false
}
