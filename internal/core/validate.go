package core

import (
	"fmt"

	"cloudvar/internal/stats"
)

// ValidationReport is the F5.4 statistical check battery applied to a
// measurement sequence: "samples collected should be tested for
// normality, independence, and stationarity".
type ValidationReport struct {
	N int
	// Normality is the Shapiro-Wilk result; when it rejects,
	// nonparametric statistics (the median CIs used throughout) are
	// required rather than mean ± stddev.
	Normality    stats.TestResult
	NormalityErr error
	// Independence is Mann-Whitney between the first and second half
	// of the sequence; rejection means later runs differ
	// systematically from earlier ones.
	Independence    stats.TestResult
	IndependenceErr error
	// Stationarity is the augmented Dickey-Fuller unit-root test.
	Stationarity    stats.ADFResult
	StationarityErr error
	// Lag1Autocorrelation of the sequence; large positive values
	// indicate carry-over between consecutive repetitions.
	Lag1Autocorrelation float64
}

// Validate runs every applicable check on the samples, in arrival
// order. Checks that need more data than provided record their errors
// rather than failing the whole report.
func Validate(samples []float64) ValidationReport {
	rep := ValidationReport{N: len(samples)}
	rep.Normality, rep.NormalityErr = stats.ShapiroWilk(samples)
	rep.Independence, rep.IndependenceErr = stats.IndependenceCheck(samples)
	rep.Stationarity, rep.StationarityErr = stats.ADF(samples, 1)
	rep.Lag1Autocorrelation = stats.Autocorrelation(samples, 1)
	return rep
}

// Findings renders the report as actionable recommendations, echoing
// Section 5's guidance. An empty slice means no red flags.
func (r ValidationReport) Findings() []string {
	var out []string
	if r.NormalityErr == nil && r.Normality.RejectAt05 {
		out = append(out,
			"samples are not normally distributed: report medians with nonparametric CIs, not mean±stddev (F5.3)")
	}
	if r.IndependenceErr != nil {
		out = append(out, fmt.Sprintf(
			"too few samples to test independence (%v): run more repetitions (F5.3)", r.IndependenceErr))
	} else if r.Independence.RejectAt05 {
		out = append(out,
			"first and second half of the sequence differ: repetitions are not independent — reset or rest the infrastructure between runs (F5.4, Figure 19)")
	}
	if r.StationarityErr == nil && !r.Stationarity.Stationary {
		out = append(out,
			"sequence is non-stationary: limit analysis to stationary windows or spread repetitions over longer time frames (F5.4)")
	}
	if r.Lag1Autocorrelation > 0.5 {
		out = append(out, fmt.Sprintf(
			"strong lag-1 autocorrelation (%.2f): consecutive runs share hidden state such as token-bucket budgets (F4.4)",
			r.Lag1Autocorrelation))
	}
	return out
}

// CompareMedians reports whether two experiments' medians are
// distinguishable at their CI confidence: if the intervals overlap,
// the honest conclusion is "no detectable difference", not a
// percentage improvement — the survey's headline failure mode.
func CompareMedians(a, b Result) (distinguishable bool, err error) {
	if a.MedianCIErr != nil {
		return false, fmt.Errorf("core: %s has no valid CI: %w", a.Name, a.MedianCIErr)
	}
	if b.MedianCIErr != nil {
		return false, fmt.Errorf("core: %s has no valid CI: %w", b.Name, b.MedianCIErr)
	}
	return a.MedianCI.Lo > b.MedianCI.Hi || b.MedianCI.Lo > a.MedianCI.Hi, nil
}
