// Package fleet is a deterministic concurrent campaign orchestrator.
//
// The paper's methodology (Section 3) multiplies measurement campaigns
// across clouds × instances × access regimes × repetitions; running
// those cells one at a time makes figure regeneration and sweep
// studies needlessly slow on multicore hosts. fleet fans the cells of
// a declarative CampaignSpec out across a bounded worker pool while
// keeping the paper's reproducibility bar: every cell draws its
// randomness from an independent simrand substream keyed by a stable
// cell label, so the output is bit-identical to a sequential run
// regardless of worker count or completion order.
//
// Failure of one cell never aborts the fleet: errors are isolated per
// cell (including recovered panics) and reported in the aggregate
// CampaignResult, which also rolls repetitions up into per-(profile,
// regime) core.Results for the Section 5 statistical machinery.
package fleet

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cloudvar/internal/cloudmodel"
	"cloudvar/internal/core"
	"cloudvar/internal/fleet/pool"
	"cloudvar/internal/simrand"
	"cloudvar/internal/sketch"
	"cloudvar/internal/stats"
	"cloudvar/internal/trace"
	"cloudvar/internal/workload"
)

// SummarizeMode selects how a cell's bandwidth summary is computed.
type SummarizeMode string

const (
	// SummarizeExact buffers and sorts the full bandwidth column
	// (stats.Sample) — bit-exact quantiles, O(n) memory. The default;
	// spelled "" so existing spec identities are byte-stable.
	SummarizeExact SummarizeMode = ""
	// SummarizeSketch streams each bin through a bounded-memory
	// t-digest (internal/sketch): O(1) memory in campaign duration,
	// quantiles within the committed rank-error contract. Part of the
	// spec identity — sketch-mode summaries are a different experiment
	// from exact ones.
	SummarizeSketch SummarizeMode = "sketch"
)

// normalize folds the explicit spelling of the default onto "".
func (m SummarizeMode) normalize() SummarizeMode {
	if m == "exact" {
		return SummarizeExact
	}
	return m
}

// Validate checks the mode is a known spelling.
func (m SummarizeMode) Validate() error {
	switch m.normalize() {
	case SummarizeExact, SummarizeSketch:
		return nil
	}
	return fmt.Errorf("fleet: unknown summarize mode %q (want exact or sketch)", string(m))
}

// CampaignSpec declares a measurement campaign matrix: every listed
// profile is measured under every listed regime, Repetitions times,
// each repetition against a fresh VM pair (a fresh substream and
// shaper incarnation, the paper's reset protocol).
type CampaignSpec struct {
	// Profiles are the cloud/instance combinations to measure.
	Profiles []cloudmodel.Profile
	// Regimes are the access regimes; nil means trace.Regimes().
	Regimes []trace.Regime
	// Repetitions is the number of fresh-pair repetitions per
	// (profile, regime); 0 means 1.
	Repetitions int
	// Config is the per-campaign measurement configuration.
	Config cloudmodel.CampaignConfig
	// Seed drives all randomness. Each cell derives an independent
	// substream from (Seed, cell label), so equal seeds give
	// bit-identical results at any worker count.
	Seed uint64
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// Confidence and ErrorBound parameterise the per-group median CI
	// (zero takes the paper defaults 0.95 and 0.05).
	Confidence float64
	ErrorBound float64
	// Stopping, when non-zero, turns the fixed repetition count into a
	// CONFIRM-driven sequential-stopping policy: repetitions are
	// scheduled in deterministic batches per (profile, regime) group
	// and a group stops as soon as its quantile CI fits the target
	// bound (internal/confirm). Repetitions then acts as the per-group
	// repetition *budget* (see EffectiveBudget). Part of the spec
	// identity: an adaptively sized campaign is a different experiment
	// from a fixed one. The zero value keeps today's fixed-reps
	// behavior — and today's spec keys.
	Stopping StoppingSpec
	// Scenario records the adverse-condition scenario the profiles
	// were expanded with (internal/scenario); zero for plain
	// campaigns. fleet never acts on it — it is carried so spec
	// hashing (internal/store) makes runs of different scenarios
	// incomparable, exactly like a changed matrix.
	Scenario ScenarioID
	// Summarize selects the cell-summary computation: exact (default)
	// or the bounded-memory sketch with the committed error contract.
	// Part of the spec identity, like Workload.
	Summarize SummarizeMode
	// Workload, when non-nil, replays a multi-client request stream
	// over every cell's measured path after the campaign measurement
	// (internal/workload). Part of the spec identity: a cell that
	// served traffic is a different experiment from one that did not.
	Workload *workload.Spec
	// Progress, when non-nil, is invoked serially (under a lock) as
	// each cell finishes, in completion order.
	Progress func(ev Progress)
	// Sink, when non-nil, persists each successful cell as it
	// completes and supplies previously persisted cells, which Run
	// restores without re-executing them — resume for interrupted
	// campaigns. Because every cell's randomness comes from its own
	// substream, a resumed run is bit-identical to an uninterrupted
	// one. Sink and Progress do not participate in spec identity.
	Sink Sink
}

// ScenarioID is the declarative identity of an adverse-condition
// scenario: its registry name plus the named numeric parameters it was
// instantiated with. It lives here rather than in internal/scenario so
// the orchestrator and store can carry it without depending on the
// scenario engine. encoding/json serialises the params map with sorted
// keys, so equal identities hash identically in the spec key.
type ScenarioID struct {
	Name   string             `json:"name"`
	Params map[string]float64 `json:"params,omitempty"`
	// Conditions are the stable IDs of the composed primitives in
	// application order (e.g. "window(start=3600,end=7200,depth=0.7)").
	// They encode every compiled parameter, so two scenarios sharing a
	// name and params but differing in structure — easy to produce
	// with hand-rolled scenarios whose Params drift from their
	// Conditions — can never collide in the spec keys.
	Conditions []string `json:"conditions,omitempty"`
}

// IsZero reports whether no scenario was applied.
func (s ScenarioID) IsZero() bool {
	return s.Name == "" && len(s.Params) == 0 && len(s.Conditions) == 0
}

// String renders "name(k=v, ...)" with sorted params, or "none".
func (s ScenarioID) String() string {
	if s.IsZero() {
		return "none"
	}
	if len(s.Params) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Params))
	for k := range s.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%g", k, s.Params[k])
	}
	return s.Name + "(" + strings.Join(parts, ", ") + ")"
}

// StoppingSpec configures CONFIRM-driven sequential stopping (Maricq
// et al., the paper's §5 sizing methodology): after each deterministic
// batch, a (profile, regime) group's per-repetition summary statistics
// are fed into an incremental confirm analysis, and the group stops
// once the CI of the target quantile fits the relative-error bound.
// The zero value disables stopping entirely.
type StoppingSpec struct {
	// Quantile of the per-repetition statistic whose CI is tracked;
	// 0 means the median (0.5).
	Quantile float64
	// Confidence of the tracked CI; 0 means 0.95.
	Confidence float64
	// ErrorBound is the target relative error of the CI — the
	// convergence criterion. Required (in (0, 1)) when stopping is
	// active.
	ErrorBound float64
	// MinReps is the smallest repetition count scheduled per group
	// before a stopping decision is made; 0 means the smallest n at
	// which the quantile CI is achievable at the configured confidence
	// (stats.MinSamplesForQuantileCI).
	MinReps int
	// MaxReps caps any one group's repetitions regardless of
	// convergence. Required (>= the effective MinReps).
	MaxReps int
}

// IsZero reports whether stopping is disabled.
func (s StoppingSpec) IsZero() bool { return s == StoppingSpec{} }

// EffectiveQuantile returns the tracked quantile after defaulting.
func (s StoppingSpec) EffectiveQuantile() float64 {
	if s.Quantile == 0 {
		return 0.5
	}
	return s.Quantile
}

// EffectiveConfidence returns the CI confidence after defaulting.
func (s StoppingSpec) EffectiveConfidence() float64 {
	if s.Confidence == 0 {
		return 0.95
	}
	return s.Confidence
}

// EffectiveMinReps returns the minimum repetitions scheduled per group
// before the first stopping decision: the configured MinReps, or the
// smallest sample size at which the tracked quantile's CI is
// achievable (never below 2 — a CI needs two measurements).
func (s StoppingSpec) EffectiveMinReps() int {
	min := s.MinReps
	if min == 0 {
		min = stats.MinSamplesForQuantileCI(s.EffectiveQuantile(), s.EffectiveConfidence())
	}
	if min < 2 {
		min = 2
	}
	return min
}

// Validate checks an active stopping configuration; the zero value is
// always valid (stopping disabled).
func (s StoppingSpec) Validate() error {
	if s.IsZero() {
		return nil
	}
	if q := s.EffectiveQuantile(); q <= 0 || q >= 1 {
		return fmt.Errorf("fleet: stopping quantile %g outside (0,1)", q)
	}
	if c := s.EffectiveConfidence(); c <= 0 || c >= 1 {
		return fmt.Errorf("fleet: stopping confidence %g outside (0,1)", c)
	}
	if s.ErrorBound <= 0 || s.ErrorBound >= 1 {
		return fmt.Errorf("fleet: stopping error bound %g outside (0,1)", s.ErrorBound)
	}
	if s.MinReps < 0 {
		return fmt.Errorf("fleet: negative stopping min repetitions")
	}
	if min := s.EffectiveMinReps(); s.MaxReps < min {
		return fmt.Errorf("fleet: stopping max repetitions %d below the effective minimum %d", s.MaxReps, min)
	}
	return nil
}

// Sink is the persistence hook for campaign cells. internal/store
// implements it on disk; fleet deliberately only knows the interface
// so the orchestrator stays storage-agnostic.
//
// Run calls Completed once before scheduling and Put concurrently
// from worker goroutines (implementations must be safe for concurrent
// use). Cells that errored are never offered to Put: failures are
// re-executed on resume rather than replayed from disk.
type Sink interface {
	// Completed returns the already-persisted cells keyed by cell
	// label. Labels unknown to the spec are ignored.
	Completed() (map[string]StoredCell, error)
	// Put persists one successful cell.
	Put(res CellResult) error
}

// StoredCell is a previously persisted cell as the Sink returns it.
// The summary is recomputed from the series on restore, so the sink
// only needs to round-trip the series and workload metrics themselves.
type StoredCell struct {
	Series *trace.Series
	// Workload holds the cell's served-traffic metrics; nil when the
	// cell ran without a workload spec.
	Workload *workload.CellMetrics
}

// Validate checks the specification.
func (s CampaignSpec) Validate() error {
	if len(s.Profiles) == 0 {
		return fmt.Errorf("fleet: spec has no profiles")
	}
	for i, p := range s.Profiles {
		if p.NewShaper == nil {
			return fmt.Errorf("fleet: profile %d (%s/%s) has nil shaper factory", i, p.Cloud, p.Instance)
		}
	}
	if s.Repetitions < 0 {
		return fmt.Errorf("fleet: negative repetitions")
	}
	if err := s.Config.Validate(); err != nil {
		return err
	}
	if err := s.Summarize.Validate(); err != nil {
		return err
	}
	if err := s.Stopping.Validate(); err != nil {
		return err
	}
	if s.Workload != nil {
		if err := s.Workload.Validate(); err != nil {
			return err
		}
	}
	// Cell labels key the per-cell substreams: a duplicate label would
	// silently replay the same stream, turning "independent
	// repetitions" into identical copies — the exact methodological
	// error the paper warns against.
	seen := make(map[string]bool)
	for _, c := range s.Cells() {
		label := c.Label()
		if seen[label] {
			return fmt.Errorf("fleet: duplicate cell %s (profiles or regimes repeat in the spec)", label)
		}
		seen[label] = true
	}
	return nil
}

// EffectiveRegimes returns the regime list after defaulting: nil
// means the paper's three standard regimes. Exported so spec hashing
// (internal/store) sees the same matrix Run executes.
func (s CampaignSpec) EffectiveRegimes() []trace.Regime {
	if len(s.Regimes) == 0 {
		return trace.Regimes()
	}
	return s.Regimes
}

// EffectiveRepetitions returns the repetition count after defaulting:
// values <= 0 mean 1.
func (s CampaignSpec) EffectiveRepetitions() int {
	if s.Repetitions <= 0 {
		return 1
	}
	return s.Repetitions
}

// EffectiveBudget returns the per-group repetition budget. Without
// stopping it is just EffectiveRepetitions. With stopping active,
// Repetitions is read as "what I can afford per group on average":
// unset means every group may run to MaxReps, and any explicit value
// is clamped into [EffectiveMinReps, MaxReps]. The adaptive scheduler
// spends budget × group-count repetitions in total, reallocating what
// converged groups leave unspent to the unconverged ones.
func (s CampaignSpec) EffectiveBudget() int {
	if s.Stopping.IsZero() {
		return s.EffectiveRepetitions()
	}
	b := s.Repetitions
	if b <= 0 {
		b = s.Stopping.MaxReps
	}
	if min := s.Stopping.EffectiveMinReps(); b < min {
		b = min
	}
	if b > s.Stopping.MaxReps {
		b = s.Stopping.MaxReps
	}
	return b
}

// Cell is one unit of fleet work: a (profile, regime, repetition)
// triple.
type Cell struct {
	Profile cloudmodel.Profile
	Regime  trace.Regime
	// Rep is the repetition index, 0-based.
	Rep int
}

// Label is the cell's stable identity: it keys the cell's random
// substream and names its series, so it must be unique within a spec
// and must not depend on enumeration order.
func (c Cell) Label() string {
	return fmt.Sprintf("%s/%s/%s/rep%d", c.Profile.Cloud, c.Profile.Instance, c.Regime.Name, c.Rep)
}

// Cells enumerates the spec's matrix in deterministic order:
// profiles outermost, then regimes, then repetitions.
func (s CampaignSpec) Cells() []Cell {
	regimes := s.EffectiveRegimes()
	reps := s.EffectiveRepetitions()
	out := make([]Cell, 0, len(s.Profiles)*len(regimes)*reps)
	for _, p := range s.Profiles {
		for _, r := range regimes {
			for rep := 0; rep < reps; rep++ {
				out = append(out, Cell{Profile: p, Regime: r, Rep: rep})
			}
		}
	}
	return out
}

// CellForLabel resolves a cell label ("cloud/instance/regime/repN")
// against the spec's matrix — the inverse of Cell.Label, used by
// distributed workers that receive shard assignments as labels over
// the wire. The repetition index is deliberately not bounded by
// EffectiveRepetitions: an adaptive schedule addresses repetitions
// beyond the fixed count, and their substreams are equally well
// defined. Labels naming a (profile, regime) outside the spec are
// errors, never guesses.
func (s CampaignSpec) CellForLabel(label string) (Cell, error) {
	for _, p := range s.Profiles {
		for _, r := range s.EffectiveRegimes() {
			prefix := p.Cloud + "/" + p.Instance + "/" + r.Name + "/rep"
			if !strings.HasPrefix(label, prefix) {
				continue
			}
			rep, err := strconv.Atoi(label[len(prefix):])
			if err != nil || rep < 0 {
				continue
			}
			c := Cell{Profile: p, Regime: r, Rep: rep}
			if c.Label() == label {
				return c, nil
			}
		}
	}
	return Cell{}, fmt.Errorf("fleet: label %q names no cell of this spec", label)
}

// CellResult is the outcome of one cell.
type CellResult struct {
	Cell   Cell
	Series *trace.Series
	// Summary describes the bandwidth column; zero when Err != nil.
	Summary stats.Summary
	// Workload holds the per-client served-traffic metrics when the
	// spec carries a workload; nil otherwise.
	Workload *workload.CellMetrics
	Err      error
}

// Progress reports one completed cell to the spec's hook.
type Progress struct {
	// Done counts cells completed so far (including this one); Total
	// is the matrix size. In an adaptive run (Stopping active) the
	// matrix size is not known upfront, so Total is the number of
	// cells scheduled so far — it grows as batches are added.
	Done, Total int
	// Result is the cell that just finished.
	Result CellResult
}

// GroupResult aggregates the repetitions of one (profile, regime)
// matrix entry: each repetition contributes its mean send-phase
// bandwidth as one sample of a core.Result, giving the F5.3
// repetition statistics (median CI, CONFIRM planning, validation)
// over fresh-pair repetitions.
type GroupResult struct {
	Cloud    string
	Instance string
	Regime   string
	// Result summarises per-repetition mean bandwidths; only
	// successful cells contribute samples.
	Result core.Result
	// Classes holds the per-SLO-class tail-latency aggregates when the
	// spec carries a workload, sorted by class name.
	Classes []ClassResult
	// Failed counts repetitions that errored.
	Failed int
	// Precision is the achieved CI precision of an adaptive run's
	// stopping decision; nil for fixed-repetition campaigns.
	Precision *GroupPrecision
}

// GroupPrecision records what an adaptive campaign achieved for one
// group: how many repetitions the stopping policy spent and how tight
// the tracked quantile CI ended up. It rides into the store manifest
// so longitudinal comparisons know each group's precision, not just
// its mean.
type GroupPrecision struct {
	// N is the number of repetitions scheduled (including failed ones).
	N int
	// HalfWidth is the final CI half-width of the tracked quantile;
	// -1 when no finite CI was ever achieved.
	HalfWidth float64
	// RelErr is the final CI half-width relative to the quantile
	// estimate; -1 when no finite CI was ever achieved.
	RelErr float64
	// Converged reports whether the final CI fits the stopping bound.
	Converged bool
	// Diverging reports whether CI widths widened as repetitions
	// accumulated — the broken-independence signature (Figure 19).
	Diverging bool
}

// ClassResult aggregates one SLO class within a (profile, regime)
// group: each repetition contributes the p99 of its served-request
// latencies as one sample, so the class's Result carries the same
// median-CI and variability machinery as bandwidth — tail latency per
// class per scenario, with confidence.
type ClassResult struct {
	Class string
	// Result summarises per-repetition p99 latencies in ms.
	Result core.Result
	// Requests counts served requests across the group's repetitions.
	Requests int
}

// CampaignResult is the aggregate outcome of a fleet run.
type CampaignResult struct {
	// Cells holds every cell outcome in Cells() enumeration order,
	// regardless of completion order.
	Cells []CellResult
	// Groups holds per-(profile, regime) aggregates in enumeration
	// order.
	Groups []GroupResult
}

// Failed returns the cells that errored, in enumeration order.
func (r CampaignResult) Failed() []CellResult {
	var out []CellResult
	for _, c := range r.Cells {
		if c.Err != nil {
			out = append(out, c)
		}
	}
	return out
}

// StoredLabels returns the labels of every successful cell in
// enumeration order — exactly the set a run's sink persisted (errored
// cells are never stored), and so the completeness expectation to
// hand store.MergeShards when recombining this campaign's shards.
func (r CampaignResult) StoredLabels() []string {
	out := make([]string, 0, len(r.Cells))
	for _, c := range r.Cells {
		if c.Err == nil {
			out = append(out, c.Cell.Label())
		}
	}
	return out
}

// Err summarises cell failures: nil when every cell succeeded,
// otherwise an error naming the count and the first failure.
func (r CampaignResult) Err() error {
	failed := r.Failed()
	if len(failed) == 0 {
		return nil
	}
	return fmt.Errorf("fleet: %d/%d cells failed, first %s: %w",
		len(failed), len(r.Cells), failed[0].Cell.Label(), failed[0].Err)
}

// CellSource derives the random substream for one cell of a campaign
// seeded with seed. Exposed so tests and external replayers can
// regenerate any single cell without running the fleet.
func CellSource(seed uint64, c Cell) *simrand.Source {
	return simrand.New(seed).Substream("fleet/" + c.Label())
}

// WorkloadSource derives the random substream for one named consumer
// of a cell's workload replay (client/<id> arrival streams, the serve
// loop's RTT jitter). Every substream is derived from a freshly
// seeded source — never from an advanced generator — so the
// derivation is order-free: equal (seed, cell, name) always gives the
// same stream, distinct names independent ones. That is what keeps
// per-client streams byte-identical at any worker count and across
// resume boundaries.
func WorkloadSource(seed uint64, c Cell, name string) *simrand.Source {
	return simrand.New(seed).Substream("workload/" + c.Label() + "/" + name)
}

// Run executes the campaign matrix across the worker pool. The
// returned CampaignResult is bit-identical for equal (spec minus
// Workers/Progress/Sink): cell ordering, series contents and group
// statistics do not depend on scheduling, and cells restored from a
// Sink are indistinguishable from freshly executed ones. Cell errors
// are isolated — Run only returns a non-nil error for an invalid spec
// or a Sink whose Completed call fails.
func Run(spec CampaignSpec) (CampaignResult, error) {
	if err := spec.Validate(); err != nil {
		return CampaignResult{}, err
	}

	// Restore persisted cells first; only the remainder is scheduled.
	// The summary is recomputed from the stored series so a restored
	// cell cannot drift from what runCell would have produced.
	var stored map[string]StoredCell
	if spec.Sink != nil {
		var err error
		if stored, err = spec.Sink.Completed(); err != nil {
			return CampaignResult{}, fmt.Errorf("fleet: loading persisted cells: %w", err)
		}
	}
	if !spec.Stopping.IsZero() {
		return runAdaptive(spec, stored), nil
	}
	cells := spec.Cells()
	var restoreScratch workerScratch
	ps := &progressState{total: len(cells)}
	results := executeCells(spec, cells, stored, nil, &restoreScratch, ps)
	return CampaignResult{Cells: results, Groups: groupResults(spec, results)}, nil
}

// RunCells executes exactly the given cells of the campaign — the
// shard-scoped entry point distributed workers use (internal/shard):
// a coordinator partitions the matrix into label sets and each worker
// runs only its own. The cells need not form the spec's full matrix
// and may address repetitions beyond the fixed count (adaptive shard
// batches do). Everything else matches Run: per-cell substreams keyed
// by label make the results bit-identical to the same cells of a
// single-process run, the Sink restore gate applies, and cell errors
// are isolated per cell. Results are returned in the given order.
func RunCells(spec CampaignSpec, cells []Cell) ([]CellResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(cells))
	for _, c := range cells {
		if c.Rep < 0 {
			return nil, fmt.Errorf("fleet: negative repetition in cell request")
		}
		label := c.Label()
		if seen[label] {
			return nil, fmt.Errorf("fleet: duplicate cell %s in request", label)
		}
		seen[label] = true
	}
	var stored map[string]StoredCell
	if spec.Sink != nil {
		var err error
		if stored, err = spec.Sink.Completed(); err != nil {
			return nil, fmt.Errorf("fleet: loading persisted cells: %w", err)
		}
	}
	var restoreScratch workerScratch
	ps := &progressState{total: len(cells)}
	return executeCells(spec, cells, stored, nil, &restoreScratch, ps), nil
}

// Assemble rolls per-cell results into a CampaignResult — the final
// aggregation step a distributed coordinator performs after gathering
// shard results back into enumeration order. Assemble(spec,
// result.Cells) reproduces result.Groups (minus adaptive precision,
// which AdaptivePlanner.Result attaches).
func Assemble(spec CampaignSpec, results []CellResult) CampaignResult {
	return CampaignResult{Cells: results, Groups: groupResults(spec, results)}
}

// SummarizeStored computes the bandwidth summary a live run would have
// produced for a stored or wire-transported series under the given
// summarization mode. The points feed the summarizer in append order —
// the order the live observer saw them — so the summary is
// byte-identical to the originating run's in both exact and sketch
// modes. This is how distributed clients (internal/shard) rebuild full
// CellResults from series that crossed a process boundary.
func SummarizeStored(mode SummarizeMode, series *trace.Series) stats.Summary {
	var scratch workerScratch
	return summarizeSeries(mode, series, &scratch)
}

// progressState is the shared done/total bookkeeping behind the
// Progress hook; total is the fixed matrix size, or the number of
// cells scheduled so far in an adaptive run.
type progressState struct {
	mu          sync.Mutex
	done, total int
}

// executeCells is the shared execution core of Run, RunCells and the
// adaptive scheduler: restore what the sink already holds, fan the
// remainder across the worker pool, and return results in cell order.
// scratches supplies the per-worker arenas (nil means size-to-fit);
// restored cells advance ps.done without firing the Progress hook,
// matching the established resume semantics.
func executeCells(spec CampaignSpec, cells []Cell, stored map[string]StoredCell, scratches []workerScratch, restoreScratch *workerScratch, ps *progressState) []CellResult {
	results := make([]CellResult, len(cells))
	var pending []int
	for i, c := range cells {
		// A stored cell is only restorable when its workload presence
		// matches the spec: a cell persisted before a workload section
		// was added carries no traffic metrics and must re-execute.
		// (The store's spec-key gate normally prevents the mismatch;
		// this keeps fleet correct for any Sink.)
		if sc, ok := stored[c.Label()]; ok && sc.Series != nil && (spec.Workload == nil) == (sc.Workload == nil) {
			// Recompute the summary under the spec's mode: the stored
			// points replay into the summarizer in append order — the
			// same order the live observer saw them — so a restored
			// cell's summary is byte-identical to a fresh run's in both
			// exact and sketch modes.
			results[i] = CellResult{Cell: c, Series: sc.Series, Summary: summarizeSeries(spec.Summarize, sc.Series, restoreScratch), Workload: sc.Workload}
			ps.done++
			continue
		}
		pending = append(pending, i)
	}

	// Each worker owns a scratch arena reused across the cells it
	// runs. Scratch never carries state between cells — every cell's
	// randomness comes from its own substream and every series is
	// freshly built — so results stay bit-identical at any worker
	// count (the determinism-vs-reuse contract, proven by the
	// workers=1-vs-8 property tests).
	if scratches == nil {
		scratches = make([]workerScratch, pool.NumWorkers(spec.Workers, len(pending)))
	}
	fresh, errs := pool.CollectWorker(len(pending), spec.Workers, func(w, j int) (CellResult, error) {
		res := runCell(spec, cells[pending[j]], &scratches[w])
		if spec.Sink != nil && res.Err == nil {
			if err := spec.Sink.Put(res); err != nil {
				// The measurement succeeded but did not persist; fail
				// the cell so the loss is visible and the cell is
				// re-executed on the next resume.
				res = CellResult{Cell: res.Cell, Err: fmt.Errorf("fleet: cell %s: persisting: %w", res.Cell.Label(), err)}
			}
		}
		if spec.Progress != nil {
			ps.mu.Lock()
			ps.done++
			ev := Progress{Done: ps.done, Total: ps.total, Result: res}
			// The deferred unlock keeps a panicking hook from
			// deadlocking the other workers; the panic itself is
			// recovered by the pool and folded into the cell below.
			func() {
				defer ps.mu.Unlock()
				spec.Progress(ev)
			}()
		}
		return res, nil
	})
	// runCell recovers its own panics into CellResult.Err, so the only
	// way errs[j] is set is a panic in the Progress hook; mark the cell
	// failed rather than returning a zero CellResult with a nil Err.
	for j, i := range pending {
		results[i] = fresh[j]
		if errs[j] != nil {
			results[i] = CellResult{Cell: cells[i], Err: errs[j]}
		}
	}
	return results
}

// workerScratch is one fleet worker's reusable arena: the campaign
// burst buffers plus the summarizer state (the bandwidth column and
// sorted sample in exact mode, the streaming sketch in sketch mode).
// Contents never outlive a cell.
type workerScratch struct {
	campaign cloudmodel.CampaignScratch
	bw       []float64
	sample   stats.Sample
	stream   sketch.Stream
}

// summarizeSeries computes a series' bandwidth summary under the
// spec's summarization mode, reusing the scratch arena. The points
// feed the summarizer in append order, so calling this on a stored
// series reproduces a live run's summary byte-for-byte.
func summarizeSeries(mode SummarizeMode, series *trace.Series, scratch *workerScratch) stats.Summary {
	if mode.normalize() == SummarizeSketch {
		scratch.stream.Reset()
		for _, pt := range series.Points {
			scratch.stream.Add(pt.BandwidthGbps)
		}
		return scratch.stream.Summary()
	}
	scratch.bw = series.AppendBandwidths(scratch.bw[:0])
	return scratch.sample.Reset(scratch.bw).Summary()
}

// runCell measures one cell on its own substream. Panics are folded
// into the cell's Err before the caller reports progress, so Done
// reaches Total even when a cell blows up.
func runCell(spec CampaignSpec, c Cell, scratch *workerScratch) (res CellResult) {
	defer func() {
		if r := recover(); r != nil {
			res = CellResult{Cell: c, Err: fmt.Errorf("fleet: cell %s panicked: %v", c.Label(), r)}
		}
	}()
	src := CellSource(spec.Seed, c)
	// In sketch mode the summarizer rides the campaign itself: every
	// bin streams into the bounded-memory sketch as it is produced, so
	// the summary path never re-walks (or needs) the full column.
	var observe func(trace.Point)
	sketchMode := spec.Summarize.normalize() == SummarizeSketch
	if sketchMode {
		scratch.stream.Reset()
		observe = func(pt trace.Point) { scratch.stream.Add(pt.BandwidthGbps) }
	}
	series, err := cloudmodel.RunCampaignObserved(c.Profile, c.Regime, spec.Config, src, &scratch.campaign, observe)
	if err != nil {
		return CellResult{Cell: c, Err: fmt.Errorf("fleet: cell %s: %w", c.Label(), err)}
	}
	// Relabel with the repetition-qualified identity so cells of the
	// same (profile, regime) stay distinguishable downstream.
	series.Label = c.Label()
	var wl *workload.CellMetrics
	if spec.Workload != nil {
		wl, err = cloudmodel.RunWorkload(*spec.Workload, series, c.Profile, spec.Config, func(name string) *simrand.Source {
			return WorkloadSource(spec.Seed, c, name)
		})
		if err != nil {
			return CellResult{Cell: c, Err: fmt.Errorf("fleet: cell %s: %w", c.Label(), err)}
		}
	}
	if sketchMode {
		return CellResult{Cell: c, Series: series, Summary: scratch.stream.Summary(), Workload: wl}
	}
	// Summarise through the scratch: same bits as series.Summary(),
	// no per-cell column copy or sort buffer.
	scratch.bw = series.AppendBandwidths(scratch.bw[:0])
	return CellResult{Cell: c, Series: series, Summary: scratch.sample.Reset(scratch.bw).Summary(), Workload: wl}
}

// groupResults rolls cell results up into per-(profile, regime)
// aggregates, preserving enumeration order.
func groupResults(spec CampaignSpec, cells []CellResult) []GroupResult {
	type key struct{ cloud, instance, regime string }
	idx := make(map[key]int)
	var groups []GroupResult
	samples := make(map[key][]float64)
	// Per-class tail-latency samples: each successful cell contributes
	// the p99 of its served-request latencies, per SLO class.
	classSamples := make(map[key]map[string][]float64)
	classRequests := make(map[key]map[string]int)
	var tails workload.TailScratch

	for _, c := range cells {
		k := key{c.Cell.Profile.Cloud, c.Cell.Profile.Instance, c.Cell.Regime.Name}
		if _, ok := idx[k]; !ok {
			idx[k] = len(groups)
			groups = append(groups, GroupResult{Cloud: k.cloud, Instance: k.instance, Regime: k.regime})
		}
		if c.Err != nil {
			groups[idx[k]].Failed++
			continue
		}
		samples[k] = append(samples[k], c.Summary.Mean)
		if c.Workload == nil {
			continue
		}
		if classSamples[k] == nil {
			classSamples[k] = make(map[string][]float64)
			classRequests[k] = make(map[string]int)
		}
		for _, tail := range c.Workload.ClassTails(&tails) {
			classSamples[k][tail.Class] = append(classSamples[k][tail.Class], tail.P99)
			classRequests[k][tail.Class] += tail.Requests
		}
	}
	for k, gi := range idx {
		name := fmt.Sprintf("%s/%s/%s", k.cloud, k.instance, k.regime)
		groups[gi].Result = core.BuildResult(name, samples[k], spec.Confidence, spec.ErrorBound)
		if len(classSamples[k]) == 0 {
			continue
		}
		classes := make([]string, 0, len(classSamples[k]))
		for class := range classSamples[k] {
			classes = append(classes, class)
		}
		sort.Strings(classes)
		for _, class := range classes {
			groups[gi].Classes = append(groups[gi].Classes, ClassResult{
				Class:    class,
				Result:   core.BuildResult(name+"/"+class, classSamples[k][class], spec.Confidence, spec.ErrorBound),
				Requests: classRequests[k][class],
			})
		}
	}
	return groups
}
