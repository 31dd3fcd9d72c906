package shard

import (
	"errors"
	"fmt"
	"sync"

	"cloudvar/internal/fleet"
	"cloudvar/internal/store"
)

// Campaign configures one distributed campaign run.
type Campaign struct {
	// Spec is the campaign to execute.
	Spec fleet.CampaignSpec
	// SpecDoc is the canonical experiment-spec document, forwarded to
	// remote workers so they can recompile the identical spec; may be
	// empty when every worker is process-local.
	SpecDoc []byte
	// RunID names the run in every participating store.
	RunID string
	// Meta is the shared creation metadata (fingerprints, creation
	// time, spec document, encoding). The coordinator fingerprints
	// once; handing every worker the same bytes is what makes the
	// shard manifests mergeable — and the merged manifest
	// byte-identical to a single-process run's.
	Meta store.RunMeta
	// Workers execute the shards; the shard count is len(Workers).
	Workers []Worker
	// Attempts bounds how many workers a shard is tried on before the
	// campaign fails; 0 means every worker once. Retries visit workers
	// in ring order starting at the shard's own index, and because
	// cell substreams are keyed by label, a retried shard reproduces
	// the dead worker's results byte for byte.
	Attempts int
	// Retry parameterises per-worker resilience: same-worker retry
	// attempts, backoff with seeded jitter, and the circuit breaker.
	// The zero value means defaults (see RetryPolicy).
	Retry RetryPolicy
	// Fallback, when non-nil, absorbs a shard's cells locally after
	// every ring worker failed — graceful degradation instead of a
	// failed campaign. It should be storeless (&InProcWorker{}): the
	// coordinator repairs coverage by appending the absorbed cells'
	// records to a collected shard (or a synthesized one), so a
	// fallback store would only collide with worker shard stamps.
	Fallback Worker
}

// Run executes the campaign across the workers and returns the
// assembled result plus every worker's persisted shard store (ready
// for store.MergeShards — hand the merge result.StoredLabels() so it
// re-verifies the same coverage). The result is bit-identical to a
// single-process fleet.Run of the same spec: assignment is a pure
// function of (SpecKey, worker count), workers execute explicit cell
// lists on label-keyed substreams, and adaptive batch barriers
// synchronize here, so the stopping schedule matches exactly.
func Run(c Campaign) (fleet.CampaignResult, []store.ShardData, error) {
	if len(c.Workers) == 0 {
		return fleet.CampaignResult{}, nil, fmt.Errorf("shard: campaign has no workers")
	}
	spec := c.Spec
	if err := spec.Validate(); err != nil {
		return fleet.CampaignResult{}, nil, err
	}
	specKey, err := store.SpecKey(spec)
	if err != nil {
		return fleet.CampaignResult{}, nil, err
	}
	attempts := c.Attempts
	if attempts <= 0 || attempts > len(c.Workers) {
		attempts = len(c.Workers)
	}
	rc := RunContext{Spec: spec, SpecKey: specKey, SpecDoc: c.SpecDoc, RunID: c.RunID, Meta: c.Meta}
	for i, w := range c.Workers {
		if err := w.Begin(rc, i, len(c.Workers)); err != nil {
			return fleet.CampaignResult{}, nil, fmt.Errorf("shard: worker %d: %w", i, err)
		}
	}
	if c.Fallback != nil {
		if err := c.Fallback.Begin(rc, 0, len(c.Workers)); err != nil {
			return fleet.CampaignResult{}, nil, fmt.Errorf("shard: fallback worker: %w", err)
		}
	}
	defer func() {
		for _, w := range c.Workers {
			w.Close()
		}
		if c.Fallback != nil {
			c.Fallback.Close()
		}
	}()

	// dead marks workers that failed a whole Execute visit. An
	// unreachable store at collection time is survivable for them —
	// and only for them — but not automatically safe: in a multi-batch
	// campaign a worker may have persisted earlier batches that were
	// never re-executed elsewhere, so collection below re-checks
	// coverage and repairs any cell that exists in no reachable store.
	dead := &deadSet{members: make([]bool, len(c.Workers))}
	health := newFleetHealth(c.Workers, c.Fallback, c.Retry, dead)

	var result fleet.CampaignResult
	if spec.Stopping.IsZero() {
		results, err := runBatch(health, specKey, attempts, spec.Cells())
		if err != nil {
			return fleet.CampaignResult{}, nil, err
		}
		result = fleet.Assemble(spec, results)
	} else {
		// The adaptive schedule runs here, never on workers: each
		// planner batch fans out by owner, and Observe at this barrier
		// feeds trackers in repetition order — the same schedule a
		// single process computes.
		planner, err := fleet.NewAdaptivePlanner(spec)
		if err != nil {
			return fleet.CampaignResult{}, nil, err
		}
		for {
			batch := planner.NextBatch()
			if len(batch) == 0 {
				break
			}
			results, err := runBatch(health, specKey, attempts, batch)
			if err != nil {
				return fleet.CampaignResult{}, nil, err
			}
			if err := planner.Observe(results); err != nil {
				return fleet.CampaignResult{}, nil, err
			}
		}
		result = planner.Result()
	}

	shards, err := collectShards(c.Workers, dead)
	if err != nil {
		return fleet.CampaignResult{}, nil, err
	}

	// Completeness: every successful cell was persisted by some
	// worker, and skipping a dead worker's unreachable store is safe
	// only if its cells survive in another shard. A worker that died
	// after persisting earlier batches (or restarted and lost its
	// run) leaves a gap here, and so do cells the local fallback
	// absorbed. Re-executing is unnecessary: every successful cell's
	// result is in memory and byte-identical to what a worker would
	// have persisted (store.NewCellRecord is the same constructor
	// Run.Put uses), so repair appends the canonical records to a
	// collected shard — or to a synthesized one when local absorption
	// left no worker store at all. Storeless fleets that never
	// absorbed collect no shards and have nothing to merge, so there
	// is no expectation to enforce.
	if missing := uncoveredCells(result, shards); len(missing) > 0 && (len(shards) > 0 || health.didAbsorb()) {
		if len(shards) == 0 {
			meta := c.Meta
			meta.Shard = &store.ShardStamp{Index: 0, Count: len(c.Workers)}
			m, err := store.BuildManifest(c.RunID, spec, meta)
			if err != nil {
				return fleet.CampaignResult{}, nil, fmt.Errorf("shard: synthesizing a shard for locally absorbed cells: %w", err)
			}
			shards = append(shards, store.ShardData{Manifest: m})
		}
		byLabel := make(map[string]fleet.CellResult, len(result.Cells))
		for _, res := range result.Cells {
			if res.Err == nil {
				byLabel[res.Cell.Label()] = res
			}
		}
		for _, cell := range missing {
			rec, err := store.NewCellRecord(byLabel[cell.Label()])
			if err != nil {
				return fleet.CampaignResult{}, nil, fmt.Errorf("shard: repairing coverage for cell %s: %w", cell.Label(), err)
			}
			shards[0].Cells = append(shards[0].Cells, rec)
		}
	}
	if len(shards) > 0 {
		if still := uncoveredCells(result, shards); len(still) > 0 {
			return fleet.CampaignResult{}, nil, fmt.Errorf("shard: %d measured cells (first: %s) are in no collected shard store — refusing to hand an incomplete campaign to the merge", len(still), still[0].Label())
		}
	}
	return result, shards, nil
}

// collectShards gathers every worker's persisted shard store. A
// transient collection failure is tolerated only for workers already
// marked dead; their cells are handled by the coverage check in Run.
// A fatal one (wire skew) fails the campaign whoever answered it.
func collectShards(workers []Worker, dead *deadSet) ([]store.ShardData, error) {
	var shards []store.ShardData
	for i, w := range workers {
		d, ok, err := w.Shard()
		if err != nil {
			if dead.is(i) && Classify(err) != ClassFatal {
				continue
			}
			return nil, fmt.Errorf("shard: collecting worker %d store: %w", i, err)
		}
		if ok {
			shards = append(shards, d)
		}
	}
	return shards, nil
}

// uncoveredCells returns the successful cells of result that appear in
// none of the collected shard stores — cells whose only persisted copy
// was lost with a dead worker.
func uncoveredCells(result fleet.CampaignResult, shards []store.ShardData) []fleet.Cell {
	stored := make(map[string]bool)
	for _, d := range shards {
		for _, rec := range d.Cells {
			stored[rec.Label] = true
		}
	}
	var missing []fleet.Cell
	for _, res := range result.Cells {
		if res.Err == nil && !stored[res.Cell.Label()] {
			missing = append(missing, res.Cell)
		}
	}
	return missing
}

// deadSet tracks which workers have failed an Execute; runBatch's
// goroutines mark it concurrently.
type deadSet struct {
	mu      sync.Mutex
	members []bool
}

func (d *deadSet) mark(i int) {
	d.mu.Lock()
	d.members[i] = true
	d.mu.Unlock()
}

func (d *deadSet) is(i int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.members[i]
}

// runBatch partitions one batch of cells by owner, executes every
// part on its preferred worker (falling through the worker ring when
// a visit fails, then to the local fallback), and scatters the
// results back into batch order.
func runBatch(health *fleetHealth, specKey string, attempts int, cells []fleet.Cell) ([]fleet.CellResult, error) {
	n := len(health.workers)
	parts := make([][]fleet.Cell, n)
	slot := make(map[string]int, len(cells))
	for i, cell := range cells {
		label := cell.Label()
		slot[label] = i
		s := Owner(specKey, label, n)
		parts[s] = append(parts[s], cell)
	}

	out := make([][]fleet.CellResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		if len(parts[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var lastErr error
			for a := 0; a < attempts; a++ {
				w := (s + a) % n
				// A worker-level failure is retried here and the cells
				// re-execute elsewhere from their original label-keyed
				// substreams, so every recovery is deterministic.
				res, err := health.execute(w, parts[s])
				if err == nil {
					out[s] = res
					return
				}
				if Classify(err) == ClassFatal {
					errs[s] = fmt.Errorf("shard: shard %d: %w", s, err)
					return
				}
				if !errors.Is(err, errBreakerOpen) {
					lastErr = err
				}
			}
			// The whole ring failed: absorb the shard locally rather
			// than fail the campaign, if a fallback is configured.
			if res, err := health.absorb(parts[s]); err == nil {
				out[s] = res
				return
			} else if !errors.Is(err, errNoFallback) {
				lastErr = err
			}
			if lastErr == nil {
				lastErr = errBreakerOpen
			}
			errs[s] = fmt.Errorf("shard: shard %d failed on all %d workers tried: %w", s, attempts, lastErr)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	results := make([]fleet.CellResult, len(cells))
	for s, part := range parts {
		if len(part) == 0 {
			continue
		}
		if len(out[s]) != len(part) {
			return nil, fmt.Errorf("shard: shard %d returned %d results for %d cells", s, len(out[s]), len(part))
		}
		for j, res := range out[s] {
			want := part[j].Label()
			if res.Cell.Label() != want {
				return nil, fmt.Errorf("shard: shard %d result %d is cell %s, want %s", s, j, res.Cell.Label(), want)
			}
			results[slot[want]] = res
		}
	}
	return results, nil
}
