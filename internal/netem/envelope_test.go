package netem

import (
	"math"
	"testing"
)

func TestEnvelopeShaperValidation(t *testing.T) {
	inner := &FixedShaper{RateGbps: 10}
	unit := func(float64) float64 { return 1 }
	if _, err := NewEnvelopeShaper(nil, unit, 1); err == nil {
		t.Error("nil inner should be rejected")
	}
	if _, err := NewEnvelopeShaper(inner, nil, 1); err == nil {
		t.Error("nil factor should be rejected")
	}
	if _, err := NewEnvelopeShaper(inner, unit, 0); err == nil {
		t.Error("zero step should be rejected")
	}
}

// TestEnvelopeShaperStepFunction checks a piecewise-constant envelope:
// full capacity for 10 s, a 60% depression for 10 s, recovery after.
func TestEnvelopeShaperStepFunction(t *testing.T) {
	step := func(tSec float64) float64 {
		if tSec >= 10 && tSec < 20 {
			return 0.4
		}
		return 1
	}
	sh, err := NewEnvelopeShaper(&FixedShaper{RateGbps: 10}, step, 1)
	if err != nil {
		t.Fatal(err)
	}

	if got := sh.Rate(1e9); got != 10 {
		t.Errorf("initial rate %g, want 10", got)
	}
	if moved := sh.Transfer(1e9, 10); math.Abs(moved-100) > 1e-9 {
		t.Errorf("first 10 s moved %g Gbit, want 100", moved)
	}
	if got := sh.Rate(1e9); got != 4 {
		t.Errorf("depressed rate %g, want 4", got)
	}
	if moved := sh.Transfer(1e9, 10); math.Abs(moved-40) > 1e-9 {
		t.Errorf("depressed 10 s moved %g Gbit, want 40", moved)
	}
	if moved := sh.Transfer(1e9, 5); math.Abs(moved-50) > 1e-9 {
		t.Errorf("recovered 5 s moved %g Gbit, want 50", moved)
	}
	if sh.elapsed != 25 {
		t.Errorf("elapsed %g, want 25", sh.elapsed)
	}
}

// TestEnvelopeShaperIdleAdvancesClock checks idle time moves the
// envelope: a transfer after a long idle lands in the depressed window.
func TestEnvelopeShaperIdleAdvancesClock(t *testing.T) {
	step := func(tSec float64) float64 {
		if tSec >= 10 {
			return 0.5
		}
		return 1
	}
	sh, err := NewEnvelopeShaper(&FixedShaper{RateGbps: 8}, step, 1)
	if err != nil {
		t.Fatal(err)
	}
	sh.Idle(10)
	if got := sh.Rate(1e9); got != 4 {
		t.Errorf("post-idle rate %g, want 4", got)
	}
	if moved := sh.Transfer(1e9, 2); math.Abs(moved-8) > 1e-9 {
		t.Errorf("post-idle transfer moved %g, want 8", moved)
	}
}

// TestEnvelopeShaperClampsFactor checks factors outside [0, 1] cannot
// manufacture capacity or go negative.
func TestEnvelopeShaperClampsFactor(t *testing.T) {
	sh, err := NewEnvelopeShaper(&FixedShaper{RateGbps: 10}, func(t float64) float64 {
		if t < 5 {
			return 3 // clamps to 1
		}
		return -1 // clamps to 0
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := sh.Rate(1e9); got != 10 {
		t.Errorf("over-unity factor should clamp to inner capacity, got %g", got)
	}
	sh.Idle(5)
	if got := sh.Rate(1e9); got != 0 {
		t.Errorf("negative factor should clamp to outage, got %g", got)
	}
}

// TestEnvelopeShaperNextTransition bounds steps to the re-sample
// interval.
func TestEnvelopeShaperNextTransition(t *testing.T) {
	sh, err := NewEnvelopeShaper(&FixedShaper{RateGbps: 10}, func(float64) float64 { return 1 }, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := sh.NextTransition(1); got != 2.5 {
		t.Errorf("NextTransition = %g, want the envelope step 2.5", got)
	}
}

// TestDiurnalMatchesEnvelope pins NewDiurnalShaper to an EnvelopeShaper
// with the cosine factor, re-sampled every period/128.
func TestDiurnalMatchesEnvelope(t *testing.T) {
	const period, depth, phase = 100.0, 0.5, 10.0
	d, err := NewDiurnalShaper(&FixedShaper{RateGbps: 10}, period, depth, phase)
	if err != nil {
		t.Fatal(err)
	}
	cos := func(tSec float64) float64 {
		theta := 2 * math.Pi * (tSec - phase) / period
		return 1 - depth/2 + depth/2*math.Cos(theta)
	}
	e, err := NewEnvelopeShaper(&FixedShaper{RateGbps: 10}, cos, period/128)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		dm := d.Transfer(1e9, 7.3)
		em := e.Transfer(1e9, 7.3)
		if dm != em {
			t.Fatalf("step %d: diurnal moved %g, envelope moved %g", i, dm, em)
		}
		d.Idle(1.1)
		e.Idle(1.1)
	}
}
