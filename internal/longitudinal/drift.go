// Package longitudinal answers the paper's replication question over
// stored campaign runs: given two or more runs of the same spec taken
// at different times, did the platform drift, and do the conclusions
// replicate? It operationalises three of the paper's checks:
//
//   - F5.2 fingerprint gate: runs are only comparable when their
//     recorded platform fingerprints still Match within tolerance.
//   - F5.3 statistics: per-(cloud, instance, regime) groups are
//     rebuilt with core.BuildResult from each run's cells and
//     compared with CompareMedians — overlapping CIs mean "no
//     detectable drift", not a percentage change.
//   - Section 2 agreement: every cell is reduced to a categorical
//     variability conclusion (the CoV band an experimenter would
//     report), and Cohen's kappa between runs measures whether those
//     conclusions replicate — κ ≥ 0.8 is the paper's "almost perfect
//     agreement" bar.
//
// Cells are aligned across runs by their stable fleet label, so the
// analysis is independent of completion order, worker count, and
// whether a run was resumed.
package longitudinal

import (
	"fmt"
	"io"
	"math"
	"sort"

	"cloudvar/internal/core"
	"cloudvar/internal/stats"
	"cloudvar/internal/store"
	"cloudvar/internal/workload"
)

// RunData is one stored run loaded for analysis.
type RunData struct {
	Manifest store.Manifest
	Cells    []store.CellRecord
}

// Load reads the named runs from the store, in the given order (the
// first run is the drift baseline).
func Load(st *store.Store, runIDs ...string) ([]RunData, error) {
	if st == nil {
		return nil, fmt.Errorf("longitudinal: nil store")
	}
	out := make([]RunData, 0, len(runIDs))
	for _, id := range runIDs {
		m, err := st.Manifest(id)
		if err != nil {
			return nil, err
		}
		// A shard-stamped run is one worker's fragment of a distributed
		// campaign: comparing it longitudinally would report drift that
		// is really just missing cells.
		if m.Shard != nil {
			return nil, fmt.Errorf("longitudinal: run %s is shard %d/%d of a distributed campaign — merge the shards before drift analysis", id, m.Shard.Index, m.Shard.Count)
		}
		cells, err := st.Cells(id)
		if err != nil {
			return nil, err
		}
		out = append(out, RunData{Manifest: m, Cells: cells})
	}
	return out, nil
}

// Options parameterises the analysis; zero values take the paper
// defaults.
type Options struct {
	// Confidence and ErrorBound parameterise the per-group median CIs
	// (defaults 0.95 and 0.05).
	Confidence float64
	ErrorBound float64
	// FingerprintTolerance is the relative tolerance for the F5.2
	// Matches gate (default 0.15).
	FingerprintTolerance float64
}

func (o Options) withDefaults() Options {
	if o.Confidence == 0 {
		o.Confidence = 0.95
	}
	if o.ErrorBound == 0 {
		o.ErrorBound = 0.05
	}
	if o.FingerprintTolerance == 0 {
		o.FingerprintTolerance = 0.15
	}
	return o
}

// FingerprintCheck is the F5.2 gate for one profile between the
// baseline run and a later run.
type FingerprintCheck struct {
	// Profile is the "cloud/instance" key.
	Profile string
	// RunID is the later run compared against the baseline.
	RunID string
	// Present reports whether both manifests recorded a fingerprint
	// for the profile; Matches is only meaningful when true.
	Present bool
	// Matches is core.Fingerprint.Matches at the configured tolerance.
	Matches bool
}

// GroupDrift compares one (cloud, instance, regime) group across
// runs.
type GroupDrift struct {
	// Group is "cloud/instance/regime".
	Group string
	// PerRun holds the group's core.Result per run, in run order;
	// samples are each repetition's mean send-phase bandwidth, the
	// same reduction fleet.Run applies.
	PerRun []core.Result
	// Distinguishable[i] compares run i against run 0 with
	// CompareMedians: true means the medians moved detectably — the
	// platform drifted for this group. Index 0 is always false.
	Distinguishable []bool
	// CompareErr[i] is non-nil when the CIs needed for the comparison
	// were unavailable (too few repetitions).
	CompareErr []error
	// MedianShift[i] is run i's median as a fraction of run 0's
	// median, minus 1 (e.g. -0.25 = 25% slower). NaN when the
	// baseline median is 0.
	MedianShift []float64
}

// KappaResult is the conclusion-agreement score between the baseline
// run and one later run.
type KappaResult struct {
	RunID string
	// N is the number of cells present in both runs.
	N int
	// Kappa is Cohen's kappa over per-cell variability conclusions;
	// Err is non-nil when kappa is undefined (e.g. no common cells).
	Kappa float64
	Err   error
	// Interpretation is the Viera & Garrett band for Kappa.
	Interpretation string
	// Disagreements lists the labels whose conclusions flipped.
	Disagreements []string
}

// Report is the full cross-run drift analysis.
type Report struct {
	// MatrixKey is the shared seed-independent content address of
	// every analysed run.
	MatrixKey string
	// Runs are the analysed manifests, baseline first.
	Runs []store.Manifest
	// CellCounts is the number of persisted cells per run.
	CellCounts []int
	// Fingerprints holds the F5.2 gate results, sorted by profile
	// then run.
	Fingerprints []FingerprintCheck
	// Groups holds per-group drift, sorted by group label.
	Groups []GroupDrift
	// Classes holds per-(group, SLO class) tail-latency drift for runs
	// that carried a traffic workload, sorted by label; empty for
	// measurement-only runs. Samples are each repetition's p99 request
	// latency in ms (lower is better), compared the same way as
	// bandwidth medians.
	Classes []GroupDrift
	// Kappa holds conclusion agreement per later run, in run order.
	Kappa []KappaResult
	// Options echoes the effective analysis parameters.
	Options Options
}

// conclusion is Conclusion of a cell's bandwidth column.
func conclusion(bw []float64) string {
	// CoV needs only the first two moments — identical bits to
	// Summary().CoV without sorting the series.
	cov := stats.CoefficientOfVariation(bw)
	switch {
	case cov < 0.05:
		return "stable (CoV < 5%)"
	case cov < 0.15:
		return "moderate (CoV 5-15%)"
	case cov < 0.50:
		return "variable (CoV 15-50%)"
	default:
		return "extreme (CoV >= 50%)"
	}
}

// Analyze runs the drift analysis over two or more loaded runs. All
// runs must share one matrix key — same campaign matrix and
// measurement config, though typically different seeds ("different
// days"); anything else is the apples-to-oranges comparison the paper
// warns against, and an error here.
func Analyze(runs []RunData, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if len(runs) < 2 {
		return nil, fmt.Errorf("longitudinal: need >= 2 runs, got %d", len(runs))
	}
	key := runs[0].Manifest.MatrixKey
	baseScenario := runs[0].Manifest.Spec.Scenario
	for _, r := range runs[1:] {
		if r.Manifest.MatrixKey != key {
			// Mismatched scenarios are the most likely (and most
			// easily missed) way to land here, so name them: a
			// noisy-neighbor run drifting against a quiet baseline is
			// an adverse-condition finding, not platform drift.
			if s := r.Manifest.Spec.Scenario; s.String() != baseScenario.String() {
				return nil, fmt.Errorf("longitudinal: run %q was measured under scenario %s but baseline %q under %s — runs under different adverse-condition scenarios are not comparable",
					r.Manifest.RunID, s, runs[0].Manifest.RunID, baseScenario)
			}
			return nil, fmt.Errorf("longitudinal: run %q has matrix %.12s but baseline %q has %.12s — only runs of identical campaign matrices are comparable (F5.2)",
				r.Manifest.RunID, r.Manifest.MatrixKey, runs[0].Manifest.RunID, key)
		}
	}

	rep := &Report{MatrixKey: key, Options: opts}
	for _, r := range runs {
		rep.Runs = append(rep.Runs, r.Manifest)
		rep.CellCounts = append(rep.CellCounts, len(r.Cells))
	}
	rep.Fingerprints = fingerprintChecks(runs, opts.FingerprintTolerance)
	cells := summarizeCells(runs)
	rep.Groups = groupDrift(runs, cells, opts)
	rep.Classes = classDrift(runs, opts)
	rep.Kappa = kappaChecks(runs, cells)
	return rep, nil
}

// cellSummary is what the analysis reads from one cell's bandwidth
// column: its mean, the repetition's sample in groupDrift, and its
// Conclusion, compared in kappaChecks.
type cellSummary struct {
	mean       float64
	conclusion string
}

// summarizeCells reads every cell's bandwidth column once, into one
// reused scratch, and summarises it; out[i][j] is runs[i].Cells[j]'s.
func summarizeCells(runs []RunData) [][]cellSummary {
	out := make([][]cellSummary, len(runs))
	var bw []float64
	for i, r := range runs {
		out[i] = make([]cellSummary, len(r.Cells))
		for j, cell := range r.Cells {
			bw = cell.Series.AppendBandwidths(bw[:0])
			out[i][j] = cellSummary{mean: stats.Mean(bw), conclusion: conclusion(bw)}
		}
	}
	return out
}

func fingerprintChecks(runs []RunData, tol float64) []FingerprintCheck {
	base := runs[0].Manifest.Fingerprints
	profiles := make([]string, 0, len(base))
	for p := range base {
		profiles = append(profiles, p)
	}
	sort.Strings(profiles)
	var out []FingerprintCheck
	for _, p := range profiles {
		for _, r := range runs[1:] {
			c := FingerprintCheck{Profile: p, RunID: r.Manifest.RunID}
			if fp, ok := r.Manifest.Fingerprints[p]; ok {
				c.Present = true
				c.Matches = base[p].Matches(fp, tol)
			}
			out = append(out, c)
		}
	}
	return out
}

func groupDrift(runs []RunData, cells [][]cellSummary, opts Options) []GroupDrift {
	// Collect per-run samples per group: one sample per repetition,
	// its series' mean bandwidth — the same rollup fleet.Run feeds
	// core.BuildResult.
	type groupKey struct{ cloud, instance, regime string }
	samples := make(map[groupKey][]map[int]float64) // group -> runIdx -> rep -> mean
	var order []groupKey
	for i, r := range runs {
		for j, cell := range r.Cells {
			k := groupKey{cell.Cloud, cell.Instance, cell.Regime}
			if _, ok := samples[k]; !ok {
				samples[k] = make([]map[int]float64, len(runs))
				order = append(order, k)
			}
			if samples[k][i] == nil {
				samples[k][i] = make(map[int]float64)
			}
			samples[k][i][cell.Rep] = cells[i][j].mean
		}
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := order[a], order[b]
		if x.cloud != y.cloud {
			return x.cloud < y.cloud
		}
		if x.instance != y.instance {
			return x.instance < y.instance
		}
		return x.regime < y.regime
	})

	var out []GroupDrift
	for _, k := range order {
		name := fmt.Sprintf("%s/%s/%s", k.cloud, k.instance, k.regime)
		g := GroupDrift{Group: name}
		for i, r := range runs {
			perRep := samples[k][i]
			reps := make([]int, 0, len(perRep))
			for rep := range perRep {
				reps = append(reps, rep)
			}
			sort.Ints(reps)
			vals := make([]float64, 0, len(reps))
			for _, rep := range reps {
				vals = append(vals, perRep[rep])
			}
			g.PerRun = append(g.PerRun,
				core.BuildResult(fmt.Sprintf("%s@%s", name, r.Manifest.RunID), vals, opts.Confidence, opts.ErrorBound))
		}
		g.Distinguishable = make([]bool, len(runs))
		g.CompareErr = make([]error, len(runs))
		g.MedianShift = make([]float64, len(runs))
		base := g.PerRun[0]
		for i := 1; i < len(runs); i++ {
			g.Distinguishable[i], g.CompareErr[i] = core.CompareMedians(base, g.PerRun[i])
			if base.Summary.Median != 0 {
				g.MedianShift[i] = g.PerRun[i].Summary.Median/base.Summary.Median - 1
			} else {
				g.MedianShift[i] = math.NaN()
			}
		}
		out = append(out, g)
	}
	return out
}

// classDrift compares per-SLO-class tail latency across runs, for
// runs whose cells carried workload traffic. Each cell contributes
// one sample per class — the p99 of that repetition's request
// latencies — mirroring the per-class rollup fleet.Run reports.
func classDrift(runs []RunData, opts Options) []GroupDrift {
	type classKey struct{ cloud, instance, regime, class string }
	samples := make(map[classKey][]map[int]float64)
	var order []classKey
	var tails workload.TailScratch
	for i, r := range runs {
		for _, cell := range r.Cells {
			if cell.Workload == nil {
				continue
			}
			for _, tail := range cell.Workload.ClassTails(&tails) {
				k := classKey{cell.Cloud, cell.Instance, cell.Regime, tail.Class}
				if _, ok := samples[k]; !ok {
					samples[k] = make([]map[int]float64, len(runs))
					order = append(order, k)
				}
				if samples[k][i] == nil {
					samples[k][i] = make(map[int]float64)
				}
				samples[k][i][cell.Rep] = tail.P99
			}
		}
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := order[a], order[b]
		if x.cloud != y.cloud {
			return x.cloud < y.cloud
		}
		if x.instance != y.instance {
			return x.instance < y.instance
		}
		if x.regime != y.regime {
			return x.regime < y.regime
		}
		return x.class < y.class
	})

	var out []GroupDrift
	for _, k := range order {
		name := fmt.Sprintf("%s/%s/%s/%s", k.cloud, k.instance, k.regime, k.class)
		g := GroupDrift{Group: name}
		for i, r := range runs {
			perRep := samples[k][i]
			reps := make([]int, 0, len(perRep))
			for rep := range perRep {
				reps = append(reps, rep)
			}
			sort.Ints(reps)
			vals := make([]float64, 0, len(reps))
			for _, rep := range reps {
				vals = append(vals, perRep[rep])
			}
			g.PerRun = append(g.PerRun,
				core.BuildResult(fmt.Sprintf("%s@%s", name, r.Manifest.RunID), vals, opts.Confidence, opts.ErrorBound))
		}
		g.Distinguishable = make([]bool, len(runs))
		g.CompareErr = make([]error, len(runs))
		g.MedianShift = make([]float64, len(runs))
		base := g.PerRun[0]
		for i := 1; i < len(runs); i++ {
			g.Distinguishable[i], g.CompareErr[i] = core.CompareMedians(base, g.PerRun[i])
			if base.Summary.Median != 0 {
				g.MedianShift[i] = g.PerRun[i].Summary.Median/base.Summary.Median - 1
			} else {
				g.MedianShift[i] = math.NaN()
			}
		}
		out = append(out, g)
	}
	return out
}

func kappaChecks(runs []RunData, cells [][]cellSummary) []KappaResult {
	base := make(map[string]string, len(runs[0].Cells))
	for j, cell := range runs[0].Cells {
		base[cell.Label] = cells[0][j].conclusion
	}
	var out []KappaResult
	for i, r := range runs[1:] {
		res := KappaResult{RunID: r.Manifest.RunID}
		var a, b []string
		for j, cell := range r.Cells {
			conclBase, ok := base[cell.Label]
			if !ok {
				continue
			}
			concl := cells[i+1][j].conclusion
			a = append(a, conclBase)
			b = append(b, concl)
			if concl != conclBase {
				res.Disagreements = append(res.Disagreements, cell.Label)
			}
		}
		res.N = len(a)
		sort.Strings(res.Disagreements)
		res.Kappa, res.Err = stats.CohenKappa(a, b)
		if res.Err == nil {
			res.Interpretation = stats.KappaInterpretation(res.Kappa)
		}
		out = append(out, res)
	}
	return out
}

// Drifted reports whether any drift signal fired: a fingerprint
// mismatch, a distinguishable group median, or a later run whose
// conclusions fell below almost-perfect agreement (κ < 0.8).
func (r *Report) Drifted() bool {
	for _, f := range r.Fingerprints {
		if f.Present && !f.Matches {
			return true
		}
	}
	for _, g := range r.Groups {
		for _, d := range g.Distinguishable {
			if d {
				return true
			}
		}
	}
	for _, g := range r.Classes {
		for _, d := range g.Distinguishable {
			if d {
				return true
			}
		}
	}
	for _, k := range r.Kappa {
		if k.Err == nil && k.Kappa < 0.8 {
			return true
		}
	}
	return false
}

// WriteMarkdown renders the report the way its facts should appear in
// an artifact appendix: baselines first, then per-group statistics,
// then conclusion agreement.
func (r *Report) WriteMarkdown(w io.Writer) error {
	p := func(format string, args ...interface{}) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("# Longitudinal drift report\n\nmatrix %.12s, scenario %s, %d runs (baseline %s)\n\n",
		r.MatrixKey, r.Runs[0].Spec.Scenario, len(r.Runs), r.Runs[0].RunID); err != nil {
		return err
	}
	if err := p("## Runs\n\n"); err != nil {
		return err
	}
	for i, m := range r.Runs {
		if err := p("- %s: seed %d, %d cells persisted\n", m.RunID, m.Spec.Seed, r.CellCounts[i]); err != nil {
			return err
		}
	}

	// Adaptive campaigns record their achieved per-group precision in
	// the manifest; surface it so a reader knows how trustworthy each
	// run's medians are. Fixed-repetition runs have no records and the
	// section (like the report bytes) is unchanged.
	hasPrecision := false
	for _, m := range r.Runs {
		if len(m.Precision) > 0 {
			hasPrecision = true
			break
		}
	}
	if hasPrecision {
		if err := p("\n## Adaptive stopping precision (CONFIRM)\n\n"); err != nil {
			return err
		}
		for _, m := range r.Runs {
			if len(m.Precision) == 0 {
				if err := p("- %s: no precision records (fixed repetitions, or interrupted before completion)\n", m.RunID); err != nil {
					return err
				}
				continue
			}
			for _, pr := range m.Precision {
				line := fmt.Sprintf("- %s %s: n=%d", m.RunID, pr.Group, pr.N)
				if pr.HalfWidth >= 0 {
					line += fmt.Sprintf(", CI half-width %.4g", pr.HalfWidth)
				}
				if pr.RelErr >= 0 {
					line += fmt.Sprintf(" (rel. error %.2f%%)", pr.RelErr*100)
				}
				if pr.Converged {
					line += " — converged"
				} else {
					line += " — NOT converged"
				}
				if pr.Diverging {
					line += ", DIVERGING (repetitions may not be independent)"
				}
				if err := p("%s\n", line); err != nil {
					return err
				}
			}
		}
	}

	if err := p("\n## Fingerprint gate (F5.2, tolerance %.0f%%)\n\n", r.Options.FingerprintTolerance*100); err != nil {
		return err
	}
	if len(r.Fingerprints) == 0 {
		if err := p("- no fingerprints recorded; comparisons below are ungated\n"); err != nil {
			return err
		}
	}
	for _, f := range r.Fingerprints {
		switch {
		case !f.Present:
			if err := p("- %s vs %s: MISSING fingerprint — cannot verify the platform held still\n", f.Profile, f.RunID); err != nil {
				return err
			}
		case f.Matches:
			if err := p("- %s vs %s: baselines match\n", f.Profile, f.RunID); err != nil {
				return err
			}
		default:
			if err := p("- %s vs %s: BASELINE DRIFT — the platform changed; do not compare raw numbers\n", f.Profile, f.RunID); err != nil {
				return err
			}
		}
	}

	if err := p("\n## Per-group medians (F5.3)\n\n"); err != nil {
		return err
	}
	for _, g := range r.Groups {
		if err := p("### %s\n\n", g.Group); err != nil {
			return err
		}
		for i, res := range g.PerRun {
			ci := "CI unavailable"
			if res.MedianCIErr == nil {
				ci = fmt.Sprintf("%.0f%% CI [%.4g, %.4g]", r.Options.Confidence*100, res.MedianCI.Lo, res.MedianCI.Hi)
			}
			line := fmt.Sprintf("- %s: n=%d median %.4g Gbps, %s", r.Runs[i].RunID, res.Summary.N, res.Summary.Median, ci)
			if i > 0 {
				switch {
				case g.CompareErr[i] != nil:
					line += fmt.Sprintf(" — comparison unavailable (%v)", g.CompareErr[i])
				case g.Distinguishable[i]:
					line += fmt.Sprintf(" — DRIFTED vs baseline (median %+.1f%%)", g.MedianShift[i]*100)
				default:
					line += " — no detectable drift"
				}
			}
			if err := p("%s\n", line); err != nil {
				return err
			}
		}
		if err := p("\n"); err != nil {
			return err
		}
	}

	if len(r.Classes) > 0 {
		if err := p("## Per-SLO-class tail latency (p99 per repetition)\n\n"); err != nil {
			return err
		}
		for _, g := range r.Classes {
			if err := p("### %s\n\n", g.Group); err != nil {
				return err
			}
			for i, res := range g.PerRun {
				ci := "CI unavailable"
				if res.MedianCIErr == nil {
					ci = fmt.Sprintf("%.0f%% CI [%.4g, %.4g]", r.Options.Confidence*100, res.MedianCI.Lo, res.MedianCI.Hi)
				}
				line := fmt.Sprintf("- %s: n=%d median p99 %.4g ms, %s", r.Runs[i].RunID, res.Summary.N, res.Summary.Median, ci)
				if i > 0 {
					switch {
					case g.CompareErr[i] != nil:
						line += fmt.Sprintf(" — comparison unavailable (%v)", g.CompareErr[i])
					case g.Distinguishable[i]:
						line += fmt.Sprintf(" — DRIFTED vs baseline (p99 %+.1f%%)", g.MedianShift[i]*100)
					default:
						line += " — no detectable drift"
					}
				}
				if err := p("%s\n", line); err != nil {
					return err
				}
			}
			if err := p("\n"); err != nil {
				return err
			}
		}
	}

	if err := p("## Conclusion agreement (Cohen's kappa over per-cell variability bands)\n\n"); err != nil {
		return err
	}
	for _, k := range r.Kappa {
		if k.Err != nil {
			if err := p("- %s vs %s: kappa unavailable (%v)\n", r.Runs[0].RunID, k.RunID, k.Err); err != nil {
				return err
			}
			continue
		}
		if err := p("- %s vs %s: κ = %.3f (%s) over %d cells", r.Runs[0].RunID, k.RunID, k.Kappa, k.Interpretation, k.N); err != nil {
			return err
		}
		if len(k.Disagreements) > 0 {
			if err := p("; flipped: %v", k.Disagreements); err != nil {
				return err
			}
		}
		if err := p("\n"); err != nil {
			return err
		}
	}

	verdict := "conclusions replicate: no drift signal fired"
	if r.Drifted() {
		verdict = "DRIFT DETECTED: re-establish baselines before comparing against these runs"
	}
	return p("\n**Verdict:** %s.\n", verdict)
}
