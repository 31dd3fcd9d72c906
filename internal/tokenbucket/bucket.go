// Package tokenbucket implements the continuous-time token-bucket
// traffic shaper that the paper reverse-engineered from Amazon EC2
// (Section 3.3), plus the trace-based parameter inference used to
// produce Figure 11.
//
// The shaper's operation, as the paper describes it: a VM's bucket
// holds a budget of tokens (Gbit). While tokens remain, the VM may
// transmit at a high rate (e.g. 10 Gbps); tokens drain at the
// transmission rate net of a replenishing rate (~1 Gbit of tokens per
// second). When the bucket empties the VM is capped to a low rate
// (e.g. 1 Gbps); because the low rate is at least the refill rate,
// transmitting at the cap keeps the bucket from refilling — the user
// must rest the network for minutes to restore the budget.
//
// The implementation adds re-engagement hysteresis: once throttled, a
// sender stays at the low rate until the bucket accumulates
// ReengageGbit of tokens. This matches the observed behaviour —
// Figure 18's straggler "oscillates between high and low bandwidths in
// short periods of time" rather than flapping instantaneously — and it
// keeps the closed-form fluid integration free of zero-length regime
// flips.
package tokenbucket

import (
	"errors"
	"fmt"
	"math"
)

// Params describes one token-bucket shaper.
type Params struct {
	// BudgetGbit is the bucket capacity in gigabits of tokens. It is
	// also the default initial fill.
	BudgetGbit float64
	// RefillGbps is the token replenishing rate in Gbit of tokens per
	// second. The paper measured ~1 for EC2 c5 instances.
	RefillGbps float64
	// HighGbps is the transmission rate while tokens remain.
	HighGbps float64
	// LowGbps is the capped rate once the bucket is empty.
	LowGbps float64
	// ReengageGbit is the token level at which a throttled sender
	// regains the high rate. Zero selects the default: 0.5% of the
	// budget, clamped to [0.1, 10] Gbit.
	ReengageGbit float64
}

// reengage returns the effective hysteresis threshold.
func (p Params) reengage() float64 {
	if p.ReengageGbit > 0 {
		return p.ReengageGbit
	}
	r := 0.005 * p.BudgetGbit
	if r < 0.1 {
		r = 0.1
	}
	if r > 10 {
		r = 10
	}
	return r
}

// Validate reports whether the parameters describe a realisable
// shaper.
func (p Params) Validate() error {
	switch {
	case p.BudgetGbit < 0:
		return fmt.Errorf("tokenbucket: negative budget %g", p.BudgetGbit)
	case p.RefillGbps < 0:
		return fmt.Errorf("tokenbucket: negative refill rate %g", p.RefillGbps)
	case p.HighGbps <= 0:
		return fmt.Errorf("tokenbucket: non-positive high rate %g", p.HighGbps)
	case p.LowGbps <= 0:
		return fmt.Errorf("tokenbucket: non-positive low rate %g", p.LowGbps)
	case p.LowGbps > p.HighGbps:
		return fmt.Errorf("tokenbucket: low rate %g exceeds high rate %g", p.LowGbps, p.HighGbps)
	case p.ReengageGbit < 0:
		return fmt.Errorf("tokenbucket: negative re-engage threshold %g", p.ReengageGbit)
	}
	return nil
}

// TimeToEmpty returns how long a transfer at full demand takes to
// drain a full bucket, in seconds; +Inf if the bucket never drains
// (demand at or below the refill rate).
func (p Params) TimeToEmpty() float64 {
	drain := p.HighGbps - p.RefillGbps
	if drain <= 0 {
		return math.Inf(1)
	}
	return p.BudgetGbit / drain
}

// Bucket is the mutable state of one shaper instance: its parameters
// plus the current token level and regime. Bucket is not safe for
// concurrent use.
type Bucket struct {
	params    Params
	tokens    float64
	throttled bool
}

// New returns a full Bucket with the given parameters.
func New(p Params) (*Bucket, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b := &Bucket{params: p, tokens: p.BudgetGbit}
	b.throttled = b.tokens < p.reengage()
	return b, nil
}

// MustNew is New that panics on invalid parameters; for tests and
// package-level catalogs.
func MustNew(p Params) *Bucket {
	b, err := New(p)
	if err != nil {
		panic(err)
	}
	return b
}

// Params returns the bucket's immutable parameters.
func (b *Bucket) Params() Params { return b.params }

// Tokens returns the current token level in Gbit.
func (b *Bucket) Tokens() float64 { return b.tokens }

// Throttled reports whether the sender is currently in the low-rate
// regime.
func (b *Bucket) Throttled() bool { return b.throttled }

// ReengageGbit returns the effective hysteresis threshold.
func (b *Bucket) ReengageGbit() float64 { return b.params.reengage() }

// SetTokens overrides the token level, clamped to [0, budget], and
// resets the regime accordingly. The paper's Section 4 experiments
// vary the *initial* budget this way to model VMs with unknown prior
// traffic history.
func (b *Bucket) SetTokens(gbit float64) {
	b.tokens = math.Max(0, math.Min(gbit, b.params.BudgetGbit))
	b.throttled = b.tokens < b.params.reengage()
}

// Rate returns the instantaneous permitted rate in Gbps for a sender
// with the given demand (Gbps).
func (b *Bucket) Rate(demandGbps float64) float64 {
	if demandGbps <= 0 {
		return 0
	}
	cap := b.params.HighGbps
	if b.throttled {
		cap = b.params.LowGbps
	}
	return math.Min(demandGbps, cap)
}

// Transfer advances the bucket by dt seconds while the sender demands
// demandGbps, returning the volume actually transferred in Gbit. The
// integration is closed-form across regime transitions inside dt, so
// no step-size error accrues — this exactness is benchmarked against
// naive fixed-step integration in BenchmarkAblationBucketIntegration.
func (b *Bucket) Transfer(demandGbps, dt float64) float64 {
	if dt < 0 {
		panic("tokenbucket: negative duration")
	}
	if dt == 0 {
		return 0
	}
	if demandGbps <= 0 {
		b.Idle(dt)
		return 0
	}

	total := 0.0
	remaining := dt
	for remaining > 1e-12 {
		if !b.throttled {
			rate := math.Min(demandGbps, b.params.HighGbps)
			drain := rate - b.params.RefillGbps
			if drain <= 0 {
				// Demand at or below refill: tokens grow (to cap);
				// the whole interval runs at the demanded rate.
				b.tokens = math.Min(b.params.BudgetGbit,
					b.tokens+(-drain)*remaining)
				total += rate * remaining
				return total
			}
			tte := b.tokens / drain
			if tte >= remaining {
				b.tokens -= drain * remaining
				if b.tokens < 1e-12 {
					// The interval ended exactly at depletion
					// (within float error): flip regimes now rather
					// than leaving an infinitesimal token residue.
					b.tokens = 0
					b.throttled = true
				}
				total += rate * remaining
				return total
			}
			// High phase ends inside the interval.
			total += rate * tte
			b.tokens = 0
			b.throttled = true
			remaining -= tte
			continue
		}
		// Throttled: capped to the low rate.
		rate := math.Min(demandGbps, b.params.LowGbps)
		if rate >= b.params.RefillGbps {
			// Transmitting at or above refill keeps the bucket
			// pinned down (the paper: "transmission at the capped
			// rate is sufficient to keep it from filling back up").
			net := b.params.RefillGbps - rate // <= 0
			b.tokens = math.Max(0, b.tokens+net*remaining)
			total += rate * remaining
			return total
		}
		// Demand below refill: tokens accumulate at (refill - rate)
		// until the re-engage threshold restores the high regime.
		growth := b.params.RefillGbps - rate
		need := b.params.reengage() - b.tokens
		tReengage := need / growth
		if tReengage >= remaining {
			b.tokens += growth * remaining
			total += rate * remaining
			return total
		}
		total += rate * tReengage
		b.tokens = b.params.reengage()
		b.throttled = false
		remaining -= tReengage
	}
	return total
}

// Idle advances the bucket by dt seconds with no transmission,
// refilling tokens up to the budget cap and re-engaging the high
// regime once the threshold is reached.
func (b *Bucket) Idle(dt float64) {
	if dt < 0 {
		panic("tokenbucket: negative duration")
	}
	b.tokens = math.Min(b.params.BudgetGbit, b.tokens+b.params.RefillGbps*dt)
	if b.tokens >= b.params.reengage() {
		b.throttled = false
	}
}

// ErrNoThrottle is returned by InferParams when the trace never shows
// the high→low transition (e.g. the bucket never emptied during the
// measurement).
var ErrNoThrottle = errors.New("tokenbucket: no throttling transition found in trace")
