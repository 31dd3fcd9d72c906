package fleet

import (
	"fmt"
	"math"

	"cloudvar/internal/cloudmodel"
	"cloudvar/internal/confirm"
	"cloudvar/internal/trace"
)

// Adaptive campaign sizing: the CONFIRM analysis (internal/confirm)
// promoted from post-hoc reporting into the scheduler itself, per the
// paper's §5 methodology. Fixed repetition counts are the central
// failure mode the paper warns about — short campaigns reach wrong
// conclusions where variance is high, long ones waste budget where it
// is low — so when CampaignSpec.Stopping is active, repetition counts
// are decided by achieved CI precision instead. A fixed campaign is
// the same schedule with no stopping rule: one batch holding the
// whole matrix.
//
// Determinism contract: the stopping decision is derived only from
// cell substreams and arrival-order-independent group state. Cells run
// in batches with a barrier between rounds; within a round, per-group
// trackers are fed in repetition order after *all* of the round's
// cells finished, never in completion order. Every quantity the
// schedule depends on (summaries, trackers, budget arithmetic) is a
// pure function of (spec minus Workers/Progress/Sink), so adaptive
// runs are bit-identical at any worker count and across resume — the
// same property the fixed path proves, extended to the schedule
// itself.
//
// Schedule owns the batch loop (next batch → execute anywhere →
// barrier, repeat): Run drives it with the local worker pool, and the
// distributed coordinator (internal/shard) with cells executed on
// remote workers — the batch barrier becomes the coordinator's
// synchronization point, and because the schedule never sees *where*
// a cell ran, the schedule (and therefore every result byte) matches
// the single-process run.

// scheduleGroup is the scheduler's per-(profile, regime) state.
type scheduleGroup struct {
	profile cloudmodel.Profile
	regime  trace.Regime
	// n counts the group's answered repetitions; target is the count
	// the schedule has asked for so far.
	n, target int
	// tracker accumulates each successful repetition's summary mean;
	// nil without a stopping policy.
	tracker *confirm.Tracker
}

// Schedule runs the campaign of a spec that passed Validate, batch by
// batch. exec executes one batch's cells, by any means that honors the
// per-cell substream contract (the local pool, RunCells on remote
// shards), and answers one result per cell in batch order. A fixed campaign is a single
// batch: the matrix in Cells() order. Under a stopping policy every
// (profile, regime) group starts at the effective minimum, each batch
// holds the repetitions between each group's count and its target in
// enumeration order, and after each batch the group trackers are fed
// in repetition order before the next targets are set. The batch
// sequence is a pure function of (spec minus Workers/Progress/Sink)
// and the observed summaries, so any two executors that run cells
// faithfully produce bit-identical campaigns.
//
// An error from exec comes back unchanged and ends the schedule; an
// answer of the wrong length or naming the wrong cell is refused.
func Schedule(spec CampaignSpec, exec func(batch []Cell) ([]CellResult, error)) (CampaignResult, error) {
	st := spec.Stopping
	first := spec.EffectiveRepetitions()
	if !st.IsZero() {
		first = st.EffectiveMinReps()
	}
	regimes := spec.EffectiveRegimes()
	groups := make([]scheduleGroup, 0, len(spec.Profiles)*len(regimes))
	for _, p := range spec.Profiles {
		for _, r := range regimes {
			g := scheduleGroup{profile: p, regime: r, target: first}
			if !st.IsZero() {
				tr, err := confirm.NewTracker(st.EffectiveQuantile(), st.EffectiveConfidence(), st.ErrorBound)
				if err != nil {
					return CampaignResult{}, err
				}
				g.tracker = tr
			}
			groups = append(groups, g)
		}
	}
	// The campaign-wide repetition budget. Every group starts at its
	// first target; what converged groups leave unspent is reallocated
	// to the unconverged ones, up to MaxReps each.
	budget := spec.EffectiveBudget() * len(groups)

	var cells []CellResult // every answer so far, in enumeration order
	for round := 1; ; round++ {
		size := 0
		for _, g := range groups {
			size += g.target - g.n
		}
		if size == 0 {
			break
		}
		batch := make([]Cell, 0, size)
		for _, g := range groups {
			for rep := g.n; rep < g.target; rep++ {
				batch = append(batch, Cell{Profile: g.profile, Regime: g.regime, Rep: rep})
			}
		}
		results, err := exec(batch)
		if err != nil {
			return CampaignResult{}, err
		}
		if err := checkAnswer(round, batch, results); err != nil {
			return CampaignResult{}, err
		}
		cells = interleave(groups, cells, results)
		// The barrier: trackers are fed in repetition order only now,
		// after the whole batch finished.
		for gi := range groups {
			g := &groups[gi]
			for _, res := range results[:g.target-g.n] {
				if g.tracker != nil && res.Err == nil {
					g.tracker.Push(res.Summary.Mean)
				}
			}
			results = results[g.target-g.n:]
			g.n = g.target
		}
		retarget(groups, budget-len(cells), st.MaxReps)
	}

	result := CampaignResult{Cells: cells, Groups: groupResults(spec, cells)}
	// groupResults builds groups in first-cell-encounter order, which
	// is exactly the schedule's enumeration order, so precision
	// attaches 1:1.
	for gi := range result.Groups {
		result.Groups[gi].Precision = groups[gi].precision()
	}
	return result, nil
}

// checkAnswer refuses an answer that is not one result per batch cell
// in batch order. Cells compare field by field, so an accepted answer
// formats no labels.
func checkAnswer(round int, batch []Cell, results []CellResult) error {
	if len(results) != len(batch) {
		return fmt.Errorf("fleet: batch %d answered %d results for %d cells", round, len(results), len(batch))
	}
	for i, want := range batch {
		got := results[i].Cell
		if got.Profile.Cloud != want.Profile.Cloud || got.Profile.Instance != want.Profile.Instance ||
			got.Regime.Name != want.Regime.Name || got.Rep != want.Rep {
			return fmt.Errorf("fleet: batch %d result %d is cell %s, want %s", round, i, got.Label(), want.Label())
		}
	}
	return nil
}

// interleave merges a checked answer into the enumeration-ordered
// cells: each group's new repetitions follow its earlier ones.
func interleave(groups []scheduleGroup, cells, results []CellResult) []CellResult {
	if len(cells) == 0 {
		// Every group's first batch starts at rep 0, so the answer is
		// already in enumeration order.
		return results
	}
	merged := make([]CellResult, 0, len(cells)+len(results))
	for _, g := range groups {
		k := g.target - g.n
		merged = append(append(merged, cells[:g.n]...), results[:k]...)
		cells, results = cells[g.n:], results[k:]
	}
	return merged
}

// retarget makes the round's stopping decisions and reallocates the
// remaining budget to the groups still open: those with a stopping
// policy whose CI has not converged and that are below maxReps.
func retarget(groups []scheduleGroup, remaining, maxReps int) {
	var open []int
	for gi, g := range groups {
		if g.tracker == nil || g.n >= maxReps {
			continue
		}
		if pt, ok := g.tracker.Latest(); ok && pt.WithinBound {
			continue
		}
		open = append(open, gi)
	}
	if len(open) == 0 || remaining <= 0 {
		return
	}
	base, extra := remaining/len(open), remaining%len(open)
	for idx, gi := range open {
		share := base
		if idx < extra {
			share++
		}
		if share == 0 {
			continue
		}
		g := &groups[gi]
		// CONFIRM's c/sqrt(n) extrapolation guides the next target;
		// when it has no usable prediction, grow geometrically (×1.5)
		// so a stubborn group converges in O(log MaxReps) rounds.
		want := g.tracker.Analysis().RequiredRepetitions()
		if want <= g.n {
			want = g.n + (g.n+1)/2
		}
		add := min(want-g.n, share, maxReps-g.n)
		if add > 0 {
			g.target = g.n + add
		}
	}
}

// precision snapshots the group's achieved CI state; nil without a
// stopping policy.
func (g *scheduleGroup) precision() *GroupPrecision {
	if g.tracker == nil {
		return nil
	}
	p := &GroupPrecision{N: g.n, HalfWidth: -1, RelErr: -1}
	an := g.tracker.Analysis()
	p.Diverging = an.Diverging()
	if pt, ok := g.tracker.Latest(); ok && !math.IsNaN(pt.Lo) {
		p.HalfWidth = (pt.Hi - pt.Lo) / 2
		p.Converged = pt.WithinBound
		// A zero quantile estimate makes RelErr non-finite; keep the
		// -1 sentinel so the record stays JSON-encodable everywhere.
		if !math.IsInf(pt.RelErr, 0) && !math.IsNaN(pt.RelErr) {
			p.RelErr = pt.RelErr
		}
	}
	return p
}
