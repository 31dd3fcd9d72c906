package netem

import (
	"fmt"
	"math"
)

// EnvelopeShaper modulates an inner shaper's permitted rate with an
// arbitrary time-varying capacity factor — the generalisation of the
// diurnal model that internal/scenario's condition primitives compile
// down to. The factor function maps elapsed virtual time (seconds
// since the shaper's creation, advanced by Transfer and Idle like
// every shaper in this package) to a multiplier in [0, 1]: 1 means the
// inner shaper's full capacity, 0 means a total outage.
//
// Transfer subdivides intervals so the factor is re-sampled at least
// every maxStepSec; a piecewise-constant envelope whose plateaus are
// long relative to maxStepSec is therefore tracked to within one step
// of its breakpoints. The factor function must be deterministic — all
// stochastic envelope structure is drawn up front by the caller (this
// is what keeps scenario output bit-identical at any worker count).
type EnvelopeShaper struct {
	inner      Shaper
	factor     func(tSec float64) float64
	maxStepSec float64
	elapsed    float64
}

// NewEnvelopeShaper wraps inner with the given capacity-factor
// envelope, re-sampled at least every maxStepSec seconds.
func NewEnvelopeShaper(inner Shaper, factor func(tSec float64) float64, maxStepSec float64) (*EnvelopeShaper, error) {
	if inner == nil {
		return nil, fmt.Errorf("netem: nil inner shaper")
	}
	if factor == nil {
		return nil, fmt.Errorf("netem: nil envelope factor")
	}
	if maxStepSec <= 0 {
		return nil, fmt.Errorf("netem: envelope step must be positive, got %g", maxStepSec)
	}
	return &EnvelopeShaper{inner: inner, factor: factor, maxStepSec: maxStepSec}, nil
}

// Inner returns the wrapped shaper (for bucket inspection by
// conditions that act on the underlying QoS state).
func (e *EnvelopeShaper) Inner() Shaper { return e.inner }

// currentFactor clamps the envelope into [0, 1]: a factor above 1
// would manufacture capacity the inner path does not have, and a
// negative one is a programming error treated as an outage.
func (e *EnvelopeShaper) currentFactor(t float64) float64 {
	f := e.factor(t)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// Rate implements Shaper.
func (e *EnvelopeShaper) Rate(demand float64) float64 {
	if demand <= 0 {
		return 0
	}
	return math.Min(demand, e.inner.Rate(demand)*e.currentFactor(e.elapsed))
}

// Transfer implements Shaper. The interval is subdivided so the
// envelope is re-sampled at least every maxStepSec.
func (e *EnvelopeShaper) Transfer(demand, dt float64) float64 {
	if dt < 0 {
		panic("netem: negative duration")
	}
	moved := 0.0
	for dt > 1e-12 {
		step := math.Min(dt, e.maxStepSec)
		// The effective demand offered to the inner shaper is capped
		// by the envelope factor, so the inner QoS state (token
		// budgets, warm-up) advances as if the depressed traffic were
		// all the path carried.
		eff := math.Min(demand, e.inner.Rate(demand)*e.currentFactor(e.elapsed))
		moved += e.inner.Transfer(eff, step)
		e.elapsed += step
		dt -= step
	}
	return moved
}

// Idle implements Shaper.
func (e *EnvelopeShaper) Idle(dt float64) {
	if dt < 0 {
		panic("netem: negative duration")
	}
	e.inner.Idle(dt)
	e.elapsed += dt
}

// NextTransition implements Shaper: the envelope may change at any
// breakpoint, so steps are bounded to maxStepSec on top of whatever
// the inner shaper reports.
func (e *EnvelopeShaper) NextTransition(demand float64) float64 {
	return math.Min(e.maxStepSec, e.inner.NextTransition(demand))
}

// Throttled forwards the inner shaper's regime state, so a wrapped
// token-bucket path keeps reporting throttle bins to the iperf probe.
func (e *EnvelopeShaper) Throttled() bool {
	if tr, ok := e.inner.(throttleReporter); ok {
		return tr.Throttled()
	}
	return false
}
