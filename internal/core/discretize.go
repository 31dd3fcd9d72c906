package core

import (
	"fmt"

	"cloudvar/internal/confirm"
	"cloudvar/internal/stats"
	"cloudvar/internal/trace"
)

// DiscretizedAnalysis applies the paper's F5.4 long-horizon recipe to
// a continuous measurement series: discretise into fixed windows,
// take each window's median, and run CONFIRM over the window medians.
// Window medians smooth out sub-window noise, so the analysis answers
// the question an experimenter actually has about a noisy platform:
// how many hours (windows) of measurement make the platform's median
// performance estimate trustworthy?
type DiscretizedAnalysis struct {
	WindowSec float64
	// Medians holds one median per window.
	Medians []float64
	// Confirm is the CONFIRM trace over the window medians.
	Confirm confirm.Analysis
	// Validation checks the window medians for iid violations
	// (diurnal cycles surface here as failed stationarity).
	Validation ValidationReport
}

// Discretize runs the analysis. conf and errBound parameterise the
// CONFIRM intervals (e.g. 0.95 and 0.05).
func Discretize(s *trace.Series, windowSec, conf, errBound float64) (DiscretizedAnalysis, error) {
	medians, err := trace.WindowMedians(s, windowSec)
	if err != nil {
		return DiscretizedAnalysis{}, fmt.Errorf("core: discretizing: %w", err)
	}
	out := DiscretizedAnalysis{WindowSec: windowSec, Medians: medians}
	if len(medians) < 2 {
		return out, fmt.Errorf("core: only %d windows; need >= 2: %w",
			len(medians), stats.ErrInsufficientData)
	}
	an, err := confirm.Analyze(medians, conf, errBound)
	if err != nil {
		return out, fmt.Errorf("core: CONFIRM over window medians: %w", err)
	}
	out.Confirm = an
	out.Validation = Validate(medians)
	return out, nil
}
