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
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"

	"cloudvar/internal/core"
	"cloudvar/internal/stats"
	"cloudvar/internal/store"
	"cloudvar/internal/workload"
)

// RunData is one stored run loaded for analysis: its manifest and, in
// append order, one Cell per persisted cell.
type RunData struct {
	Manifest store.Manifest
	Cells    []Cell
}

// Cell is what the analysis reads from one stored cell: its identity,
// the mean of its bandwidth column (the repetition's sample in the
// group medians), that column's CoV conclusion (compared by kappa) and
// the p99 of each SLO class its workload served (the samples of the
// class tail drift).
type Cell struct {
	Label      string
	Cloud      string
	Instance   string
	Regime     string
	Rep        int
	Mean       float64
	Conclusion string
	// Tails holds one p99 per class that served a request, in order of
	// the class's first client; nil for a cell without a workload.
	Tails []workload.ClassTail
}

// NewCell reduces one stored cell to the facts the analysis reads.
// tails is the scratch the class p99s are selected in; the Cell
// aliases neither it nor c's bandwidth column.
func NewCell(c store.BandwidthCell, tails *workload.TailScratch) Cell {
	cell := Cell{
		Label: c.Label, Cloud: c.Cloud, Instance: c.Instance, Regime: c.Regime, Rep: c.Rep,
		Mean:       stats.Mean(c.Bandwidth),
		Conclusion: conclusion(c.Bandwidth),
	}
	if c.Workload != nil {
		cell.Tails = slices.Clone(c.Workload.ClassTails(tails))
	}
	return cell
}

// Load reads the named runs from the store, in the given order (the
// first run is the drift baseline). It reads each run's manifest and
// cells once and reduces every cell to its Cell as it is read, so a
// columnar run is held a frame at a time, never whole, and its time,
// retransmissions, RTT and CPU columns are never decoded.
func Load(st *store.Store, runIDs ...string) ([]RunData, error) {
	if st == nil {
		return nil, fmt.Errorf("longitudinal: nil store")
	}
	out := make([]RunData, 0, len(runIDs))
	var read store.BandwidthScratch
	var tails workload.TailScratch
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
		run := RunData{Manifest: m}
		err = st.BandwidthCells(id, m.Encoding, &read, func(c store.BandwidthCell) {
			run.Cells = append(run.Cells, NewCell(c, &tails))
		})
		if err != nil {
			return nil, err
		}
		out = append(out, run)
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
	// One sample per cell and key. A group's is the repetition's mean
	// bandwidth — the same rollup fleet.Run feeds core.BuildResult. A
	// cell that served workload traffic adds each SLO class's p99
	// request latency, mirroring fleet.Run's per-class rollup.
	groups, classes := driftSamples{}, driftSamples{}
	for i, r := range runs {
		for _, cell := range r.Cells {
			k := driftKey{cell.Cloud, cell.Instance, cell.Regime, ""}
			groups.add(k, len(runs), i, cell.Rep, cell.Mean)
			for _, tail := range cell.Tails {
				k.class = tail.Class
				classes.add(k, len(runs), i, cell.Rep, tail.P99)
			}
		}
	}
	rep.Groups = groups.drift(runs, opts)
	rep.Classes = classes.drift(runs, opts)
	rep.Kappa = kappaChecks(runs)
	return rep, nil
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

// driftKey names what one GroupDrift compares: a (cloud, instance,
// regime) group's bandwidth when class is "", or one SLO class's tail
// latency within the group.
type driftKey struct{ cloud, instance, regime, class string }

// driftSamples holds one sample per cell for each key: per run, the
// sample of every repetition.
type driftSamples map[driftKey][]map[int]float64

func (s driftSamples) add(k driftKey, runs, run, rep int, sample float64) {
	perRun := s[k]
	if perRun == nil {
		perRun = make([]map[int]float64, runs)
		s[k] = perRun
	}
	if perRun[run] == nil {
		perRun[run] = make(map[int]float64)
	}
	perRun[run][rep] = sample
}

// drift compares every key's samples across runs against the
// baseline run, in (cloud, instance, regime, class) order.
func (s driftSamples) drift(runs []RunData, opts Options) []GroupDrift {
	keys := make([]driftKey, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(x, y driftKey) int {
		return cmp.Or(strings.Compare(x.cloud, y.cloud), strings.Compare(x.instance, y.instance),
			strings.Compare(x.regime, y.regime), strings.Compare(x.class, y.class))
	})

	var out []GroupDrift
	for _, k := range keys {
		name := k.cloud + "/" + k.instance + "/" + k.regime
		if k.class != "" {
			name += "/" + k.class
		}
		g := GroupDrift{Group: name}
		for i, r := range runs {
			perRep := s[k][i]
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

func kappaChecks(runs []RunData) []KappaResult {
	base := make(map[string]string, len(runs[0].Cells))
	for _, cell := range runs[0].Cells {
		base[cell.Label] = cell.Conclusion
	}
	var out []KappaResult
	for _, r := range runs[1:] {
		res := KappaResult{RunID: r.Manifest.RunID}
		var a, b []string
		for _, cell := range r.Cells {
			conclBase, ok := base[cell.Label]
			if !ok {
				continue
			}
			concl := cell.Conclusion
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
