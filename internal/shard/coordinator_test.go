package shard_test

// The tentpole property: shards=1-vs-N byte identity. A campaign
// distributed across N workers — fixed or adaptive, JSONL or
// columnar, with or without served traffic, and across a
// worker-failure reassignment — must produce the same campaign result
// and the same merged store bytes as a single-process fleet.Run.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cloudvar/internal/core"
	"cloudvar/internal/fleet"
	"cloudvar/internal/shard"
	"cloudvar/internal/store"
	"cloudvar/internal/testutil"
	"cloudvar/internal/workload"
)

// sharedMeta fingerprints the spec once — the coordinator's job — so
// every store in a comparison carries identical creation metadata.
func sharedMeta(t testing.TB, spec fleet.CampaignSpec, enc string) store.RunMeta {
	t.Helper()
	prints, err := fleet.FingerprintProfiles(spec, core.FingerprintConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return store.RunMeta{Fingerprints: prints, CreatedUnix: 1754600000, Encoding: enc}
}

// singleRun executes the campaign in one process into its own store
// and returns the result and the store.
func singleRun(t testing.TB, spec fleet.CampaignSpec, meta store.RunMeta) (fleet.CampaignResult, *store.Store) {
	t.Helper()
	st := testutil.TempStore(t)
	run, err := st.CreateWithMeta("r1", spec, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	s := spec
	s.Workers = 1
	s.Sink = run
	res, err := fleet.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if err := run.RecordPrecision(res.Groups); err != nil {
		t.Fatal(err)
	}
	return res, st
}

// distributedRun executes the campaign across the given workers,
// merges the shard stores, and returns the result and the merged
// store.
func distributedRun(t testing.TB, spec fleet.CampaignSpec, meta store.RunMeta, workers []shard.Worker) (fleet.CampaignResult, *store.Store) {
	t.Helper()
	res, shards, err := shard.Run(shard.Campaign{Spec: spec, RunID: "r1", Meta: meta, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	dst := testutil.TempStore(t)
	merged, err := store.MergeShards(dst, "r1", shards, res.StoredLabels())
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()
	if err := merged.RecordPrecision(res.Groups); err != nil {
		t.Fatal(err)
	}
	return res, dst
}

// inProcWorkers builds n store-backed in-process workers.
func inProcWorkers(t testing.TB, n int) []shard.Worker {
	t.Helper()
	out := make([]shard.Worker, n)
	for i := range out {
		out[i] = &shard.InProcWorker{Dir: t.TempDir()}
	}
	return out
}

// assertStoresEqual compares two stores' run "r1" byte for byte:
// manifest bytes (keys, identity, fingerprints, precision) and every
// cell's canonical record bytes. Cell-file order is compared only
// when orderSensitive — a sequential fixed run persists in
// enumeration order, which the merge reproduces exactly; an adaptive
// run persists in batch-completion order, where only the per-cell
// bytes are the contract.
func assertStoresEqual(t *testing.T, got, want *store.Store, orderSensitive bool, cellsFile string) {
	t.Helper()
	read := func(st *store.Store, name string) []byte {
		b, err := os.ReadFile(filepath.Join(st.Dir(), "runs", "r1", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if g, w := read(got, "manifest.json"), read(want, "manifest.json"); !bytes.Equal(g, w) {
		t.Errorf("merged manifest differs from single-process run:\n got %s\nwant %s", g, w)
	}
	if orderSensitive {
		if g, w := read(got, cellsFile), read(want, cellsFile); !bytes.Equal(g, w) {
			t.Errorf("merged %s differs from single-process run (%d vs %d bytes)", cellsFile, len(g), len(w))
		}
		return
	}
	gotCells, err := got.Cells("r1")
	if err != nil {
		t.Fatal(err)
	}
	wantCells, err := want.Cells("r1")
	if err != nil {
		t.Fatal(err)
	}
	if len(gotCells) != len(wantCells) {
		t.Fatalf("merged run has %d cells, single-process run has %d", len(gotCells), len(wantCells))
	}
	index := make(map[string][]byte, len(wantCells))
	for _, rec := range wantCells {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		index[rec.Label] = b
	}
	for _, rec := range gotCells {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		w, ok := index[rec.Label]
		if !ok {
			t.Fatalf("merged run holds cell %s the single-process run does not", rec.Label)
		}
		if !bytes.Equal(b, w) {
			t.Errorf("cell %s differs between merged and single-process run", rec.Label)
		}
	}
}

func TestShardRunByteIdentityFixed(t *testing.T) {
	for _, enc := range []string{store.EncodingJSONL, store.EncodingColumnar} {
		name := "jsonl"
		cellsFile := "cells.jsonl"
		if enc == store.EncodingColumnar {
			name, cellsFile = "columnar", "cells.col"
		}
		t.Run(name, func(t *testing.T) {
			spec := testutil.TwoCloudSpec(t, 41, 0)
			meta := sharedMeta(t, spec, enc)
			wantRes, wantStore := singleRun(t, spec, meta)
			want := testutil.EncodeResult(t, wantRes)
			for _, n := range []int{1, 2, 5} {
				t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
					gotRes, gotStore := distributedRun(t, spec, meta, inProcWorkers(t, n))
					if got := testutil.EncodeResult(t, gotRes); got != want {
						t.Errorf("campaign result differs from single-process run at %d shards", n)
					}
					assertStoresEqual(t, gotStore, wantStore, true, cellsFile)
				})
			}
		})
	}
}

func TestShardRunByteIdentityAdaptive(t *testing.T) {
	// An error bound tight enough to force reallocation rounds past
	// the minimum batch, so the distributed barrier is exercised.
	spec := testutil.EC2Spec(t, 7, 0)
	spec.Repetitions = 8
	spec.Stopping = fleet.StoppingSpec{ErrorBound: 0.001, MaxReps: 12}
	meta := sharedMeta(t, spec, "")
	wantRes, wantStore := singleRun(t, spec, meta)
	want := testutil.EncodeResult(t, wantRes)
	if wantRes.Groups[0].Precision == nil {
		t.Fatal("adaptive reference run carries no precision records")
	}
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			gotRes, gotStore := distributedRun(t, spec, meta, inProcWorkers(t, n))
			if got := testutil.EncodeResult(t, gotRes); got != want {
				t.Errorf("adaptive campaign result differs from single-process run at %d shards", n)
			}
			assertStoresEqual(t, gotStore, wantStore, false, "cells.jsonl")
		})
	}
}

func TestShardRunByteIdentityWorkload(t *testing.T) {
	spec := testutil.EC2Spec(t, 11, 0)
	spec.Workload = &workload.Spec{
		AggregateRPS: 3,
		RequestKB:    4096,
		Clients: []workload.Client{
			{ID: "web", RateFraction: 0.6, SLOClass: "interactive", Arrival: workload.Arrival{Process: workload.Poisson}},
			{ID: "etl", RateFraction: 0.4, SLOClass: "batch", Arrival: workload.Arrival{Process: workload.Gamma, CV: 2}},
		},
	}
	meta := sharedMeta(t, spec, "")
	wantRes, wantStore := singleRun(t, spec, meta)
	want := testutil.EncodeResult(t, wantRes)
	gotRes, gotStore := distributedRun(t, spec, meta, inProcWorkers(t, 3))
	if got := testutil.EncodeResult(t, gotRes); got != want {
		t.Error("workload campaign result differs from single-process run")
	}
	assertStoresEqual(t, gotStore, wantStore, true, "cells.jsonl")
}

// flakyWorker persists a few cells of its first assignment, then
// fails at the worker level — the crash-mid-shard scenario. Its store
// survives with the partial shard, exactly like a worker process that
// died after some fsynced appends.
type flakyWorker struct {
	inner     *shard.InProcWorker
	failAfter int

	// The retry ring can hand this worker two shards' Execute calls
	// concurrently, like any real worker serving parallel requests.
	mu   sync.Mutex
	dead bool
}

func (w *flakyWorker) Begin(rc shard.RunContext, index, count int) error {
	return w.inner.Begin(rc, index, count)
}

func (w *flakyWorker) Execute(cells []fleet.Cell) ([]fleet.CellResult, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead {
		return nil, errors.New("worker is dead")
	}
	w.dead = true
	k := w.failAfter
	if k > len(cells) {
		k = len(cells)
	}
	if k > 0 {
		if _, err := w.inner.Execute(cells[:k]); err != nil {
			return nil, err
		}
	}
	return nil, errors.New("worker crashed mid-shard")
}

func (w *flakyWorker) Shard() (store.ShardData, bool, error) { return w.inner.Shard() }
func (w *flakyWorker) Close() error                          { return w.inner.Close() }

func TestShardRunKillWorkerMidShard(t *testing.T) {
	fixed := testutil.TwoCloudSpec(t, 41, 0)
	adaptive := testutil.EC2Spec(t, 7, 0)
	adaptive.Repetitions = 8
	adaptive.Stopping = fleet.StoppingSpec{ErrorBound: 0.001, MaxReps: 12}
	for name, spec := range map[string]fleet.CampaignSpec{"fixed": fixed, "adaptive": adaptive} {
		t.Run(name, func(t *testing.T) {
			meta := sharedMeta(t, spec, "")
			wantRes, wantStore := singleRun(t, spec, meta)
			want := testutil.EncodeResult(t, wantRes)

			// Worker 0 dies after persisting two cells of its first
			// shard; the coordinator reassigns the whole shard to the
			// next worker and merges the survivor's answer. The dead
			// worker's partial store is resume state the merge never
			// reads.
			workers := []shard.Worker{
				&flakyWorker{inner: &shard.InProcWorker{Dir: t.TempDir()}, failAfter: 2},
				&shard.InProcWorker{Dir: t.TempDir()},
				&shard.InProcWorker{Dir: t.TempDir()},
			}
			gotRes, gotStore := distributedRun(t, spec, meta, workers)
			if got := testutil.EncodeResult(t, gotRes); got != want {
				t.Error("campaign result differs from single-process run after worker failure")
			}
			assertStoresEqual(t, gotStore, wantStore, name == "fixed", "cells.jsonl")
		})
	}
}

// amnesiacWorker executes its first assignment successfully, then
// dies and takes its store with it: Shard() always errors, like a
// worker machine whose disk vanished with the process. Cells it
// persisted in earlier batches exist in no other store; the merge
// still holds them because the coordinator merges the answers it
// received, never the workers' stores.
type amnesiacWorker struct {
	inner *shard.InProcWorker

	mu        sync.Mutex
	calls     int
	persisted int
}

func (w *amnesiacWorker) Begin(rc shard.RunContext, index, count int) error {
	return w.inner.Begin(rc, index, count)
}

func (w *amnesiacWorker) Execute(cells []fleet.Cell) ([]fleet.CellResult, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.calls++
	if w.calls > 1 {
		return nil, errors.New("worker process is gone")
	}
	res, err := w.inner.Execute(cells)
	if err == nil {
		w.persisted += len(cells)
	}
	return res, err
}

func (w *amnesiacWorker) Shard() (store.ShardData, bool, error) {
	return store.ShardData{}, false, errors.New("worker store is unreachable")
}

func (w *amnesiacWorker) Close() error { return w.inner.Close() }

func TestShardRunRecoversCellsLostWithDeadWorkerStore(t *testing.T) {
	// Adaptive, multi-batch: worker 0 persists its batch-1 cells, then
	// dies before batch 2 and its store becomes unreachable. The
	// campaign must still finish and merge byte-identical — the lost
	// store's cells are already in the coordinator's batch-1 results.
	spec := testutil.EC2Spec(t, 7, 0)
	spec.Repetitions = 8
	spec.Stopping = fleet.StoppingSpec{ErrorBound: 0.001, MaxReps: 12}
	meta := sharedMeta(t, spec, "")
	wantRes, wantStore := singleRun(t, spec, meta)
	want := testutil.EncodeResult(t, wantRes)

	lost := &amnesiacWorker{inner: &shard.InProcWorker{Dir: t.TempDir()}}
	workers := []shard.Worker{
		lost,
		&shard.InProcWorker{Dir: t.TempDir()},
		&shard.InProcWorker{Dir: t.TempDir()},
	}
	gotRes, gotStore := distributedRun(t, spec, meta, workers)
	if lost.persisted == 0 {
		t.Fatal("scenario failed to persist any cell before the worker died — nothing was at risk")
	}
	if got := testutil.EncodeResult(t, gotRes); got != want {
		t.Error("campaign result differs from single-process run after losing a worker's store")
	}
	assertStoresEqual(t, gotStore, wantStore, false, "cells.jsonl")
}

// TestShardRunStorelessFleet: workers that persist nothing still give
// the merge every cell, because Run builds its shard from the results
// the workers answered.
func TestShardRunStorelessFleet(t *testing.T) {
	spec := testutil.TwoCloudSpec(t, 41, 0)
	meta := sharedMeta(t, spec, "")
	wantRes, wantStore := singleRun(t, spec, meta)
	workers := []shard.Worker{&shard.InProcWorker{}, &shard.InProcWorker{}, &shard.InProcWorker{}}
	gotRes, gotStore := distributedRun(t, spec, meta, workers)
	if got, want := testutil.EncodeResult(t, gotRes), testutil.EncodeResult(t, wantRes); got != want {
		t.Error("storeless campaign result differs from single-process run")
	}
	assertStoresEqual(t, gotStore, wantStore, true, "cells.jsonl")
}

func TestShardRunFailsWhenAllWorkersDie(t *testing.T) {
	spec := testutil.EC2Spec(t, 7, 0)
	workers := []shard.Worker{
		&flakyWorker{inner: &shard.InProcWorker{Dir: t.TempDir()}},
		&flakyWorker{inner: &shard.InProcWorker{Dir: t.TempDir()}},
	}
	_, _, err := shard.Run(shard.Campaign{Spec: spec, RunID: "r1", Meta: store.RunMeta{CreatedUnix: 1}, Workers: workers})
	if err == nil {
		t.Fatal("campaign succeeded with every worker dead")
	}
}

// lyingWorker executes its cells but misshapes every answer: it drops
// the last result when short, and otherwise swaps the first two.
type lyingWorker struct {
	shard.InProcWorker
	short bool
}

func (w *lyingWorker) Execute(cells []fleet.Cell) ([]fleet.CellResult, error) {
	res, err := w.InProcWorker.Execute(cells)
	if err != nil || len(res) < 2 {
		return res, err
	}
	if w.short {
		return res[:len(res)-1], nil
	}
	res[0], res[1] = res[1], res[0]
	return res, nil
}

// TestShardRunRefusesMisshapenAnswers: a worker answer that cannot be
// the requested cells fails the campaign. A short answer fails naming
// the shard; a misnamed one fails naming the batch and position.
func TestShardRunRefusesMisshapenAnswers(t *testing.T) {
	spec := testutil.EC2Spec(t, 7, 0)
	cells := spec.Cells()
	for _, c := range []struct {
		short bool
		want  string
	}{
		{true, fmt.Sprintf("shard 0 returned %d results for %d cells", len(cells)-1, len(cells))},
		{false, fmt.Sprintf("batch 1 result 0 is cell %s, want %s", cells[1].Label(), cells[0].Label())},
	} {
		_, _, err := shard.Run(shard.Campaign{Spec: spec, RunID: "r1", Meta: store.RunMeta{CreatedUnix: 1},
			Workers: []shard.Worker{&lyingWorker{short: c.short}}})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("short=%v: Run returned %v, want an error containing %q", c.short, err, c.want)
		}
	}
}
