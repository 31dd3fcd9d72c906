// Package core is the paper's contribution distilled into a library:
// variability-aware experiment design for cloud environments. It
// operationalises the Section 5 findings:
//
//   - F5.2: fingerprint the platform's network behaviour before and
//     after an experiment, and only compare results whose baselines
//     match (Fingerprint, Matches).
//   - F5.3: treat stochastic variability with enough repetitions and
//     nonparametric statistics; plan repetitions with CONFIRM
//     (Design.Adaptive, Result.Planning).
//   - F5.4: test samples for normality, independence and
//     stationarity; rest and reset infrastructure so runs are truly
//     independent (Validate, Design.RestSec, Design.FreshEnv).
//   - F5.5: record platform details alongside results (Metadata).
package core

import (
	"fmt"
	"math"

	"cloudvar/internal/confirm"
	"cloudvar/internal/stats"
)

// Trial runs one experiment repetition and returns its measurement
// (e.g. a runtime in seconds).
type Trial func() (float64, error)

// Environment abstracts the controllable infrastructure hooks the
// methodology needs. Implementations range from the emulated clusters
// in this repository to real cloud orchestration.
type Environment interface {
	// Reset restores the environment to a known clean state — the
	// "fresh set of VMs for every experiment" protocol. For the
	// emulated clusters this rebuilds token buckets at their initial
	// budget.
	Reset() error
	// Rest idles the environment for the given seconds, letting
	// hidden state (token buckets) recover without a full reset.
	Rest(seconds float64) error
}

// NopEnvironment is an Environment with no controllable state, for
// experiments that manage their own.
type NopEnvironment struct{}

// Reset implements Environment.
func (NopEnvironment) Reset() error { return nil }

// Rest implements Environment.
func (NopEnvironment) Rest(float64) error { return nil }

// Design specifies how an experiment is to be run.
type Design struct {
	// Repetitions is the fixed repetition count; ignored when
	// Adaptive is set.
	Repetitions int
	// Adaptive keeps repeating until the median CI fits ErrorBound
	// or MaxRepetitions is reached (CONFIRM-style planning).
	Adaptive bool
	// MaxRepetitions bounds adaptive runs.
	MaxRepetitions int
	// Confidence for interval estimates (default 0.95).
	Confidence float64
	// ErrorBound is the target relative CI half-width (default 0.05).
	ErrorBound float64
	// RestSec idles the environment between repetitions.
	RestSec float64
	// FreshEnv resets the environment before every repetition.
	FreshEnv bool
}

// DefaultDesign returns the paper-recommended fixed design: enough
// repetitions for a valid 95% median CI, with rests between runs.
func DefaultDesign(repetitions int) Design {
	return Design{
		Repetitions: repetitions,
		Confidence:  0.95,
		ErrorBound:  0.05,
	}
}

// withDefaults fills zero fields.
func (d Design) withDefaults() Design {
	if d.Confidence == 0 {
		d.Confidence = 0.95
	}
	if d.ErrorBound == 0 {
		d.ErrorBound = 0.05
	}
	if d.Adaptive && d.MaxRepetitions == 0 {
		d.MaxRepetitions = 100
	}
	return d
}

// Validate checks the design.
func (d Design) Validate() error {
	d = d.withDefaults()
	switch {
	case !d.Adaptive && d.Repetitions < 2:
		return fmt.Errorf("core: fixed design needs >= 2 repetitions")
	case d.Adaptive && d.MaxRepetitions < stats.MinSamplesForQuantileCI(0.5, d.Confidence):
		return fmt.Errorf("core: adaptive cap %d below the minimum for a %g%% median CI",
			d.MaxRepetitions, d.Confidence*100)
	case d.Confidence <= 0 || d.Confidence >= 1:
		return fmt.Errorf("core: confidence %g outside (0,1)", d.Confidence)
	case d.ErrorBound <= 0:
		return fmt.Errorf("core: error bound must be positive")
	case d.RestSec < 0:
		return fmt.Errorf("core: negative rest")
	}
	return nil
}

// Result is the outcome of running a designed experiment.
type Result struct {
	Name    string
	Samples []float64
	Summary stats.Summary
	// MedianCI is the nonparametric interval; Err is non-nil when the
	// sample was too small for one (the under-specification the
	// survey found in most papers).
	MedianCI    stats.Interval
	MedianCIErr error
	// Planning is the CONFIRM trace over the samples.
	Planning confirm.Analysis
	// Validation is the F5.4 statistical check battery.
	Validation ValidationReport
	// Converged reports whether the design's error bound was met.
	Converged bool
	// Metadata records platform details per F5.5.
	Metadata map[string]string
}

// BuildResult assembles a Result from already-collected samples: the
// descriptive summary, nonparametric median CI, CONFIRM planning trace
// and F5.4 validation battery. Zero confidence/errorBound take the
// paper defaults (0.95, 0.05). Run and the fleet orchestrator both
// funnel their samples through here so every path reports
// identically.
func BuildResult(name string, samples []float64, confidence, errorBound float64) Result {
	if confidence == 0 {
		confidence = 0.95
	}
	if errorBound == 0 {
		errorBound = 0.05
	}
	// One sort serves both the summary and the median CI.
	var sample stats.Sample
	sample.Reset(samples)
	res := Result{
		Name:     name,
		Samples:  samples,
		Summary:  sample.Summary(),
		Metadata: map[string]string{},
	}
	res.MedianCI, res.MedianCIErr = sample.MedianCI(confidence)
	if res.MedianCIErr == nil && res.MedianCI.RelativeError() <= errorBound {
		res.Converged = true
	}
	if len(samples) >= 2 {
		if an, err := confirm.Analyze(samples, confidence, errorBound); err == nil {
			res.Planning = an
		}
	}
	res.Validation = Validate(samples)
	return res
}

// Run executes the experiment per the design against the environment.
func Run(name string, design Design, env Environment, trial Trial) (Result, error) {
	design = design.withDefaults()
	if err := design.Validate(); err != nil {
		return Result{}, err
	}
	if env == nil {
		env = NopEnvironment{}
	}
	if trial == nil {
		return Result{}, fmt.Errorf("core: nil trial")
	}

	res := Result{Name: name, Metadata: map[string]string{}}
	limit := design.Repetitions
	if design.Adaptive {
		limit = design.MaxRepetitions
	}

	for i := 0; i < limit; i++ {
		if design.FreshEnv {
			if err := env.Reset(); err != nil {
				return res, fmt.Errorf("core: resetting environment before rep %d: %w", i, err)
			}
		}
		if design.RestSec > 0 && i > 0 {
			if err := env.Rest(design.RestSec); err != nil {
				return res, fmt.Errorf("core: resting before rep %d: %w", i, err)
			}
		}
		v, err := trial()
		if err != nil {
			return res, fmt.Errorf("core: repetition %d: %w", i, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("core: repetition %d produced non-finite measurement %g", i, v)
		}
		res.Samples = append(res.Samples, v)

		if design.Adaptive && len(res.Samples) >= stats.MinSamplesForQuantileCI(0.5, design.Confidence) {
			iv, err := stats.MedianCI(res.Samples, design.Confidence)
			if err == nil && iv.RelativeError() <= design.ErrorBound {
				res.Converged = true
				break
			}
		}
	}

	built := BuildResult(name, res.Samples, design.Confidence, design.ErrorBound)
	built.Converged = built.Converged || res.Converged
	return built, nil
}
