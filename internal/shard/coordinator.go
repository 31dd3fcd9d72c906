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
	// Workers execute the shards; the shard count is len(Workers). A
	// shard is tried on every worker once before the campaign fails,
	// in ring order starting at the shard's own index, and because
	// cell substreams are keyed by label, a retried shard reproduces
	// the dead worker's results byte for byte.
	Workers []Worker
	// Fallback, when non-nil, absorbs a shard's cells locally after
	// every ring worker failed — graceful degradation instead of a
	// failed campaign. It should be storeless (&InProcWorker{}): its
	// results reach the merge through Run like every worker's, so a
	// store of its own would hold only resume state nothing reads.
	Fallback Worker
}

// Run executes the campaign across the workers and returns the
// assembled result plus one shard, stamped 0/len(Workers), holding the
// record of every successful cell the workers answered — hand it to
// store.MergeShards with result.StoredLabels(). Worker stores are
// resume state only; Run never reads them back. The result is
// bit-identical to a single-process fleet.Run of the same spec:
// assignment is a pure function of (SpecKey, worker count), workers
// execute explicit cell lists on label-keyed substreams, and
// fleet.Schedule runs here with runBatch as its executor, so every
// batch barrier synchronizes here and the schedule matches exactly.
func Run(c Campaign) (fleet.CampaignResult, []store.ShardData, error) {
	if len(c.Workers) == 0 {
		return fleet.CampaignResult{}, nil, fmt.Errorf("shard: campaign has no workers")
	}
	spec := c.Spec
	if err := spec.Validate(); err != nil {
		return fleet.CampaignResult{}, nil, err
	}
	// The merge shard's manifest, built first so a bad run ID or
	// metadata fails before any worker starts.
	meta := c.Meta
	meta.Shard = &store.ShardStamp{Index: 0, Count: len(c.Workers)}
	m, err := store.BuildManifest(c.RunID, spec, meta)
	if err != nil {
		return fleet.CampaignResult{}, nil, err
	}
	rc := RunContext{Spec: spec, SpecKey: m.SpecKey, SpecDoc: c.SpecDoc, RunID: c.RunID, Meta: c.Meta}
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

	health := newFleetHealth(c.Workers, c.Fallback)

	// The schedule runs here, never on workers: each batch fans out by
	// owner, and the batch barrier synchronizes at this coordinator,
	// so the trackers see results in repetition order — the same
	// schedule a single process computes.
	result, err := fleet.Schedule(spec, func(batch []fleet.Cell) ([]fleet.CellResult, error) {
		return runBatch(health, m.SpecKey, batch)
	})
	if err != nil {
		return fleet.CampaignResult{}, nil, err
	}

	// Every successful cell came back in an Execute answer, and
	// NewCellRecord builds the record its worker's Run.Put persisted.
	merge := store.ShardData{Manifest: m, Cells: make([]store.CellRecord, 0, len(result.Cells))}
	for _, res := range result.Cells {
		if res.Err != nil {
			continue
		}
		rec, err := store.NewCellRecord(res)
		if err != nil {
			return fleet.CampaignResult{}, nil, fmt.Errorf("shard: building the merge shard: %w", err)
		}
		merge.Cells = append(merge.Cells, rec)
	}
	return result, []store.ShardData{merge}, nil
}

// runBatch partitions one batch of cells by owner, executes every
// part on its preferred worker (falling through the worker ring when
// a visit fails, then to the local fallback), and scatters the
// results back into batch order by position. fleet.Schedule checks
// that each scattered result names the cell it was scattered to.
func runBatch(health *fleetHealth, specKey string, cells []fleet.Cell) ([]fleet.CellResult, error) {
	n := len(health.workers)
	parts := make([][]fleet.Cell, n)
	slots := make([][]int, n)
	for i, cell := range cells {
		s := Owner(specKey, cell.Label(), n)
		parts[s] = append(parts[s], cell)
		slots[s] = append(slots[s], i)
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
			for a := 0; a < n; a++ {
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
			errs[s] = fmt.Errorf("shard: shard %d failed on all %d workers tried: %w", s, n, lastErr)
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
			results[slots[s][j]] = res
		}
	}
	return results, nil
}
