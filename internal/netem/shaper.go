package netem

import (
	"fmt"
	"math"

	"cloudvar/internal/simrand"
	"cloudvar/internal/tokenbucket"
)

// Shaper models an egress rate controller on a virtual NIC. The three
// implementations correspond to the three cloud behaviours of
// Section 3: token buckets (EC2), fixed per-core QoS with stochastic
// noise (GCE), and pure stochastic contention (HPCCloud, clouds A-H).
//
// All methods use seconds and Gbps/Gbit. Implementations are not safe
// for concurrent use; the simulation is single-threaded.
type Shaper interface {
	// Rate returns the instantaneous permitted rate for a given
	// aggregate demand (both Gbps).
	Rate(demandGbps float64) float64
	// Transfer advances the shaper dt seconds at the given achieved
	// demand and returns the volume moved (Gbit).
	Transfer(demandGbps, dt float64) float64
	// Idle advances the shaper dt seconds with no traffic.
	Idle(dt float64)
	// NextTransition returns how long the current Rate remains valid
	// under sustained demand: the time until a token bucket flips
	// regime or a sampled capacity is redrawn. +Inf when the rate
	// never changes on its own.
	NextTransition(demandGbps float64) float64
}

// FixedShaper caps egress at a constant rate — the idealised
// "the provider guarantees X Gbps" model that the paper shows real
// clouds do not deliver.
type FixedShaper struct {
	RateGbps float64
}

// Rate implements Shaper.
func (f *FixedShaper) Rate(demand float64) float64 {
	if demand <= 0 {
		return 0
	}
	return math.Min(demand, f.RateGbps)
}

// Transfer implements Shaper.
func (f *FixedShaper) Transfer(demand, dt float64) float64 {
	if dt < 0 {
		panic("netem: negative duration")
	}
	return f.Rate(demand) * dt
}

// Idle implements Shaper.
func (f *FixedShaper) Idle(dt float64) {}

// NextTransition implements Shaper.
func (f *FixedShaper) NextTransition(demand float64) float64 { return math.Inf(1) }

// BucketShaper adapts a tokenbucket.Bucket to the Shaper interface —
// the EC2 model.
type BucketShaper struct {
	Bucket *tokenbucket.Bucket
}

// NewBucketShaper builds a BucketShaper with a fresh full bucket.
func NewBucketShaper(p tokenbucket.Params) (*BucketShaper, error) {
	b, err := tokenbucket.New(p)
	if err != nil {
		return nil, fmt.Errorf("netem: %w", err)
	}
	return &BucketShaper{Bucket: b}, nil
}

// Rate implements Shaper.
func (s *BucketShaper) Rate(demand float64) float64 { return s.Bucket.Rate(demand) }

// Transfer implements Shaper.
func (s *BucketShaper) Transfer(demand, dt float64) float64 {
	return s.Bucket.Transfer(demand, dt)
}

// Idle implements Shaper.
func (s *BucketShaper) Idle(dt float64) { s.Bucket.Idle(dt) }

// NextTransition implements Shaper.
func (s *BucketShaper) NextTransition(demand float64) float64 {
	p := s.Bucket.Params()
	tokens := s.Bucket.Tokens()
	if demand <= 0 {
		// Idle: refilling past the re-engage threshold flips the
		// regime offered to future demand.
		if s.Bucket.Throttled() && p.RefillGbps > 0 {
			return (s.Bucket.ReengageGbit() - tokens) / p.RefillGbps
		}
		return math.Inf(1)
	}
	if !s.Bucket.Throttled() {
		rate := math.Min(demand, p.HighGbps)
		drain := rate - p.RefillGbps
		if drain <= 0 {
			return math.Inf(1)
		}
		return tokens / drain
	}
	// Throttled: the regime flips back once tokens reach the
	// re-engage threshold, which only happens while transmitting
	// below the refill rate.
	rate := math.Min(demand, p.LowGbps)
	if rate < p.RefillGbps {
		return (s.Bucket.ReengageGbit() - tokens) / (p.RefillGbps - rate)
	}
	return math.Inf(1)
}

// SampledShaper redraws its capacity from a distribution at a fixed
// period — the Section 2.1 emulation of Ballani clouds A-H ("we
// uniformly sample bandwidth values from these distributions every
// x ∈ {5, 50} seconds") and the stochastic-noise model of HPCCloud
// and GCE.
type SampledShaper struct {
	dist      *simrand.QuantileDist
	src       *simrand.Source
	periodSec float64

	currentGbps float64
	// untilNext counts down to the next redraw.
	untilNext float64
}

// NewSampledShaper builds a shaper redrawing from dist every periodSec
// seconds using the given random stream. The initial capacity is drawn
// immediately.
func NewSampledShaper(dist *simrand.QuantileDist, periodSec float64, src *simrand.Source) (*SampledShaper, error) {
	if dist == nil {
		return nil, fmt.Errorf("netem: nil distribution")
	}
	if periodSec <= 0 {
		return nil, fmt.Errorf("netem: non-positive sample period %g", periodSec)
	}
	if src == nil {
		return nil, fmt.Errorf("netem: nil random source")
	}
	s := &SampledShaper{dist: dist, src: src, periodSec: periodSec}
	s.currentGbps = dist.Sample(src)
	s.untilNext = periodSec
	return s, nil
}

// Rate implements Shaper.
func (s *SampledShaper) Rate(demand float64) float64 {
	if demand <= 0 {
		return 0
	}
	return math.Min(demand, s.currentGbps)
}

// advance moves the redraw clock, resampling at period boundaries, and
// returns the volume transferred at the given demand.
func (s *SampledShaper) advance(demand, dt float64) float64 {
	if dt < 0 {
		panic("netem: negative duration")
	}
	moved := 0.0
	for dt > 1e-12 {
		step := math.Min(dt, s.untilNext)
		moved += s.Rate(demand) * step
		dt -= step
		s.untilNext -= step
		if s.untilNext <= 1e-12 {
			s.currentGbps = s.dist.Sample(s.src)
			s.untilNext = s.periodSec
		}
	}
	return moved
}

// Transfer implements Shaper.
func (s *SampledShaper) Transfer(demand, dt float64) float64 { return s.advance(demand, dt) }

// Idle implements Shaper. Idle time still advances the redraw clock:
// contention from other tenants does not pause when this VM rests.
func (s *SampledShaper) Idle(dt float64) { s.advance(0, dt) }

// NextTransition implements Shaper.
func (s *SampledShaper) NextTransition(demand float64) float64 { return s.untilNext }
