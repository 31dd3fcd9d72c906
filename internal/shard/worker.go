package shard

import (
	"fmt"

	"cloudvar/internal/fleet"
	"cloudvar/internal/store"
)

// RunContext is everything a worker needs to participate in one
// distributed campaign. The coordinator builds it once — including
// the shared creation metadata (fingerprints, creation time, spec
// document) — and hands the same context to every worker, which is
// what makes the per-shard manifests byte-for-byte mergeable.
type RunContext struct {
	// Spec is the validated campaign. Process-local workers use it
	// directly; remote workers recompile SpecDoc and must get an
	// equal spec (expspec.Compile is pure).
	Spec fleet.CampaignSpec
	// SpecKey is the campaign's content address (store.SpecKey(Spec)).
	SpecKey string
	// SpecDoc is the canonical experiment-spec document the campaign
	// was compiled from; empty for campaigns built in code, in which
	// case only process-local workers can execute them.
	SpecDoc []byte
	// RunID names the run in every participating store.
	RunID string
	// Meta is the shared creation metadata. Meta.Shard is ignored —
	// each worker stamps its own index.
	Meta store.RunMeta
}

// Worker executes slices of a campaign. Implementations: InProcWorker
// (same process, for tests and single-host fan-out) and HTTPWorker (a
// campaignd worker process reached over loopback or LAN).
//
// Execute's error return means the worker itself failed (process
// death, transport failure) and the coordinator should retry the
// cells elsewhere; per-cell errors inside the results are campaign
// facts and are never retried, exactly like fleet.Run's.
type Worker interface {
	// Begin prepares the worker for a campaign: index/count is the
	// worker's shard stamp.
	Begin(rc RunContext, index, count int) error
	// Execute runs the given cells and returns their results in order.
	Execute(cells []fleet.Cell) ([]fleet.CellResult, error)
	// Shard returns the worker's persisted shard store, ok=false when
	// the worker is storeless (nothing persisted). Run never calls it:
	// the merge takes the coordinator's results, and the store is the
	// worker's resume state.
	Shard() (store.ShardData, bool, error)
	// Close releases the worker's campaign state.
	Close() error
}

// InProcWorker runs its shard in-process through fleet.RunCells,
// persisting into a shard-stamped store under Dir ("" runs storeless:
// nothing to resume, as for the local fallback). It is also what a
// WorkerServer executes each HTTP run through, so a worker process
// binds, resumes and persists exactly like an in-process one.
type InProcWorker struct {
	// Dir is the worker's store directory.
	Dir string

	// spec carries the run as its Sink once Begin opened one.
	spec  fleet.CampaignSpec
	st    *store.Store
	run   *store.Run
	runID string
}

// bindingError marks Begin's refusals to bind the run on disk: a run
// Resume refuses for this spec (its spec-key check among them), or one
// stamped for another shard. They are protocol refusals, never store
// trouble, so a WorkerServer answers them 400.
type bindingError struct{ err error }

func (e *bindingError) Error() string { return e.err.Error() }
func (e *bindingError) Unwrap() error { return e.err }

// Begin implements Worker: create the worker's shard-stamped run —
// or, when the run already exists under Dir (a worker restarted over
// its old store), resume it after re-verifying the spec key and
// shard stamp. Resumed cells restore through the sink, so a restarted
// worker re-executes none of what it already persisted.
func (w *InProcWorker) Begin(rc RunContext, index, count int) error {
	w.spec = rc.Spec
	w.runID = rc.RunID
	if w.Dir == "" {
		return nil
	}
	st, err := store.Open(w.Dir)
	if err != nil {
		return err
	}
	meta := rc.Meta
	meta.Shard = &store.ShardStamp{Index: index, Count: count}
	var run *store.Run
	if _, merr := st.Manifest(rc.RunID); merr == nil {
		if run, err = st.Resume(rc.RunID, rc.Spec); err != nil {
			return &bindingError{err}
		}
		if got := run.Manifest().Shard; got == nil || *got != *meta.Shard {
			run.Close()
			onDisk := "no shard stamp"
			if got != nil {
				onDisk = fmt.Sprintf("stamp %d/%d", got.Index, got.Count)
			}
			return &bindingError{fmt.Errorf("shard: run %q on disk carries %s but this worker is assigned shard %d/%d — refusing to mix shard assignments", rc.RunID, onDisk, index, count)}
		}
	} else if run, err = st.CreateWithMeta(rc.RunID, rc.Spec, meta); err != nil {
		return err
	}
	w.st, w.run = st, run
	w.spec.Sink = run
	return nil
}

// Execute implements Worker.
func (w *InProcWorker) Execute(cells []fleet.Cell) ([]fleet.CellResult, error) {
	return fleet.RunCells(w.spec, cells)
}

// Shard implements Worker.
func (w *InProcWorker) Shard() (store.ShardData, bool, error) {
	if w.st == nil {
		return store.ShardData{}, false, nil
	}
	d, err := store.LoadShard(w.st, w.runID)
	if err != nil {
		return store.ShardData{}, false, err
	}
	return d, true, nil
}

// Close implements Worker.
func (w *InProcWorker) Close() error {
	if w.run == nil {
		return nil
	}
	run := w.run
	w.run = nil
	return run.Close()
}

// resolveCells maps labels back to the spec's cells — the worker-side
// half of a wire transfer, where assignments travel as labels.
func resolveCells(spec fleet.CampaignSpec, labels []string) ([]fleet.Cell, error) {
	cells := make([]fleet.Cell, len(labels))
	for i, label := range labels {
		c, err := spec.CellForLabel(label)
		if err != nil {
			return nil, fmt.Errorf("shard: resolving assignment: %w", err)
		}
		cells[i] = c
	}
	return cells, nil
}
