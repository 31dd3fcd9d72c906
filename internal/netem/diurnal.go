package netem

import (
	"fmt"
	"math"
)

// NewDiurnalShaper modulates inner's permitted rate with a smooth
// periodic factor — the day/night contention cycle that shared
// research clouds exhibit, and the reason the paper (F5.4) recommends
// spreading repetitions "over longer time frames, different diurnal or
// calendar cycles". The factor is
//
//	1 - depth/2 + depth/2 · cos(2π · (t - phaseSec)/periodSec)
//
// so capacity peaks at t = phaseSec and dips by depth (the fraction of
// capacity lost at the trough, in [0, 1)) at the opposite phase. The
// result is an EnvelopeShaper that re-samples the cosine every
// periodSec/128, tracking the sinusoid within ~1% of its period, and
// follows virtual time through Transfer/Idle calls like every other
// shaper in this package.
func NewDiurnalShaper(inner Shaper, periodSec, depth, phaseSec float64) (*EnvelopeShaper, error) {
	if inner == nil {
		return nil, fmt.Errorf("netem: nil inner shaper")
	}
	if periodSec <= 0 {
		return nil, fmt.Errorf("netem: diurnal period must be positive")
	}
	if depth < 0 || depth >= 1 {
		return nil, fmt.Errorf("netem: diurnal depth %g outside [0, 1)", depth)
	}
	factor := func(t float64) float64 {
		theta := 2 * math.Pi * (t - phaseSec) / periodSec
		return 1 - depth/2 + depth/2*math.Cos(theta)
	}
	return NewEnvelopeShaper(inner, factor, periodSec/128)
}
