package netem

// Request injection: the traffic engine's serving loop. Where
// RunIperf drives a shaped path with one saturating flow, ServeRequests
// replays an application request stream over the bandwidth the path
// actually achieved — a fluid FIFO single-server queue in which each
// request's transfer integrates the measured piecewise-constant
// bandwidth envelope, plus one vNIC RTT sample per request. Queueing
// delay emerges when offered load meets a bandwidth dip (a noisy
// neighbour, a regime throttle), which is exactly how heterogeneous
// clients experience the variability the paper measures.

import (
	"fmt"
	"math"
	"slices"

	"cloudvar/internal/simrand"
)

// Request is one application transfer offered to a measured path.
type Request struct {
	// TimeSec is the arrival time, seconds from campaign start.
	TimeSec float64
	// Client is an opaque index the caller uses to scatter latencies
	// back to their sources.
	Client int
}

// PathEnvelope is the piecewise-constant achieved bandwidth of a
// measured path: Gbps[i] holds from Times[i] until Times[i+1] (the
// last value extends beyond the final interval). It is exactly the
// (time, bandwidth) columns of a campaign's trace series.
type PathEnvelope struct {
	Times []float64
	Gbps  []float64
}

// Validate checks the envelope: parallel non-empty columns,
// non-decreasing times (so none is NaN), finite non-negative
// bandwidths with at least one positive value (an all-idle path could
// never serve a request). A NaN bandwidth, or an infinite one over a
// zero-width interval, would give a NaN completion, and every request
// after it a wrong latency.
func (e PathEnvelope) Validate() error {
	if len(e.Times) == 0 || len(e.Times) != len(e.Gbps) {
		return fmt.Errorf("netem: envelope has %d times and %d bandwidths", len(e.Times), len(e.Gbps))
	}
	positive := false
	for i := range e.Times {
		if math.IsNaN(e.Times[i]) {
			return fmt.Errorf("netem: envelope time %d is NaN", i)
		}
		if i > 0 && e.Times[i] < e.Times[i-1] {
			return fmt.Errorf("netem: envelope time %d (%g s) precedes time %d", i, e.Times[i], i-1)
		}
		if g := e.Gbps[i]; math.IsNaN(g) || math.IsInf(g, 0) {
			return fmt.Errorf("netem: envelope bandwidth %d is %g", i, g)
		}
		if e.Gbps[i] < 0 {
			return fmt.Errorf("netem: envelope bandwidth %d is negative", i)
		}
		if e.Gbps[i] > 0 {
			positive = true
		}
	}
	if !positive {
		return fmt.Errorf("netem: envelope carries no bandwidth")
	}
	return nil
}

// transferEnd returns when a transfer of gbit starting at start
// completes under the envelope, where i is the interval covering start:
// the last with Times[i] <= start, or 0 when start precedes Times[0].
// Beyond the last interval the final bandwidth persists; if that is
// zero the transfer can still complete only within the envelope,
// otherwise an error reports the stall.
func (e PathEnvelope) transferEnd(i int, start, gbit float64) (float64, error) {
	t := start
	remaining := gbit
	for ; i < len(e.Times); i++ {
		if t < e.Times[i] {
			t = e.Times[i]
		}
		bw := e.Gbps[i]
		if i == len(e.Times)-1 {
			// Terminal interval: unbounded extent.
			if bw <= 0 {
				return 0, fmt.Errorf("netem: transfer stalled at %g s: path bandwidth is zero past the envelope", t)
			}
			return t + remaining/bw, nil
		}
		if bw <= 0 {
			continue
		}
		width := e.Times[i+1] - t
		if capacity := bw * width; capacity >= remaining {
			return t + remaining/bw, nil
		} else {
			remaining -= capacity
			t = e.Times[i+1]
		}
	}
	return 0, fmt.Errorf("netem: transfer stalled") // unreachable: loop ends at the terminal interval
}

// ServeRequests plays a request stream through a fluid FIFO
// single-server queue over the envelope. reqs must be sorted by
// TimeSec (ties in any fixed order — the order is part of the
// deterministic contract); a NaN or infinite arrival is refused. Each
// request transfers gbit gigabits; its latency is queueing wait + transfer
// time + one vNIC RTT sample, in milliseconds, appended to dst in
// input order; dst grows at most once, before the first request is
// served. src drives only the RTT samples, so equal (reqs, gbit,
// envelope, model, src) inputs give byte-identical latencies.
func ServeRequests(dst []float64, reqs []Request, gbit float64, env PathEnvelope, model VNICModel, writeBytes int, src *simrand.Source) ([]float64, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	if gbit <= 0 {
		return nil, fmt.Errorf("netem: request volume %g gbit must be positive", gbit)
	}
	// A -Inf arrival would start at the idle server's 0 and wait an
	// infinite time. Sorted arrivals put every -Inf first, and the
	// order check refuses one after a finite arrival.
	if len(reqs) > 0 && math.IsInf(reqs[0].TimeSec, -1) {
		return nil, fmt.Errorf("netem: request 0 arrival is -Inf")
	}
	// A +Inf arrival would start at +Inf and end with a NaN latency.
	// Sorted arrivals put every +Inf last, so the loop serves the ones
	// before the first and the refusal follows it.
	served := len(reqs)
	for served > 0 && math.IsInf(reqs[served-1].TimeSec, 1) {
		served--
	}
	latencies := slices.Grow(dst, len(reqs))
	queued := model.queuedBytes(writeBytes, false)
	free := 0.0          // when the server next idles
	seg := 0             // the envelope interval covering start
	last := math.Inf(-1) // the previous arrival
	for i, r := range reqs[:served] {
		// One comparison refuses an arrival before the previous one, a
		// NaN arrival, which no comparison orders, and any arrival after
		// a +Inf one out of order.
		if !(r.TimeSec >= last) {
			if math.IsInf(last, 1) {
				return nil, infArrival(reqs, i-1)
			}
			if math.IsNaN(r.TimeSec) {
				return nil, fmt.Errorf("netem: request %d arrival is NaN", i)
			}
			return nil, fmt.Errorf("netem: request %d (%g s) precedes request %d", i, r.TimeSec, i-1)
		}
		last = r.TimeSec
		start := r.TimeSec
		if free > start {
			start = free
		}
		// Arrivals are ordered and bandwidths finite, so completions and
		// starts never decrease and the cursor only walks forward.
		for seg+1 < len(env.Times) && env.Times[seg+1] <= start {
			seg++
		}
		done, err := env.transferEnd(seg, start, gbit)
		if err != nil {
			if math.IsInf(start, 1) {
				// A +Inf arrival out of order stalls past a zero last bandwidth.
				return nil, infArrival(reqs, i)
			}
			return nil, fmt.Errorf("netem: request %d: %w", i, err)
		}
		free = done
		// The RTT sample sees the rate the transfer actually achieved,
		// which is positive by construction (a completed transfer moved
		// gbit > 0 in done-start seconds).
		rate := gbit / (done - start)
		rtt := jitterRTT(src, queueLatencyMs(model.BaseRTTms, queued, rate), model.RTTJitterFrac)
		latencies = append(latencies, (done-r.TimeSec)*1000+rtt)
	}
	if served < len(reqs) {
		return nil, infArrival(reqs, served)
	}
	return latencies, nil
}

// infArrival refuses the first of the +Inf arrivals that run up to
// request i.
func infArrival(reqs []Request, i int) error {
	for i > 0 && math.IsInf(reqs[i-1].TimeSec, 1) {
		i--
	}
	return fmt.Errorf("netem: request %d arrival is +Inf", i)
}
