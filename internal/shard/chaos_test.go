package shard_test

// The chaos suite: the headline robustness property. A campaign run
// under every built-in fault plan — crashes, restarts, stalls, error
// bursts, torn responses, partitions — must merge to a store
// byte-identical to the fault-free run's: same manifest (spec key,
// matrix key, fingerprints, precision), same cell bytes. Faults may
// change how long a campaign takes and which worker computed a cell,
// never a result byte.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"cloudvar/internal/faults"
	"cloudvar/internal/fleet"
	"cloudvar/internal/shard"
	"cloudvar/internal/store"
	"cloudvar/internal/testutil"
	"cloudvar/internal/workload"
)

// chaosInjector compiles one fault plan against an n-worker fleet.
func chaosInjector(t *testing.T, plan string, params map[string]float64, n int) *faults.Injector {
	t.Helper()
	inj, err := (faults.Plan{Name: plan, Params: params}).Injector(99, n)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// chaosDistributedRun is distributedRun with a storeless local
// fallback for graceful degradation.
func chaosDistributedRun(t *testing.T, spec fleet.CampaignSpec, meta store.RunMeta, workers []shard.Worker) (fleet.CampaignResult, *store.Store) {
	t.Helper()
	res, shards, err := shard.Run(shard.Campaign{
		Spec:     spec,
		RunID:    "r1",
		Meta:     meta,
		Workers:  workers,
		Fallback: &shard.InProcWorker{},
	})
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

// TestChaosByteIdentityEveryPlan runs the full matrix: three campaign
// shapes (fixed, adaptive, workload-driven) under every registered
// fault plan, each compared byte for byte against its fault-free
// single-process reference.
func TestChaosByteIdentityEveryPlan(t *testing.T) {
	adaptive := testutil.EC2Spec(t, 7, 0)
	adaptive.Repetitions = 8
	adaptive.Stopping = fleet.StoppingSpec{ErrorBound: 0.001, MaxReps: 12}
	workloadSpec := testutil.EC2Spec(t, 11, 0)
	workloadSpec.Workload = &workload.Spec{
		AggregateRPS: 3,
		RequestKB:    4096,
		Clients: []workload.Client{
			{ID: "web", RateFraction: 0.6, SLOClass: "interactive", Arrival: workload.Arrival{Process: workload.Poisson}},
			{ID: "etl", RateFraction: 0.4, SLOClass: "batch", Arrival: workload.Arrival{Process: workload.Gamma, CV: 2}},
		},
	}
	cases := []struct {
		name string
		spec fleet.CampaignSpec
		// A fixed campaign persists in enumeration order, which the
		// merge reproduces; an adaptive one persists in completion
		// order, so only the per-cell bytes are the contract.
		orderSensitive bool
	}{
		{"fixed", testutil.TwoCloudSpec(t, 41, 0), true},
		{"adaptive", adaptive, false},
		{"workload", workloadSpec, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			meta := sharedMeta(t, c.spec, "")
			wantRes, wantStore := singleRun(t, c.spec, meta)
			want := testutil.EncodeResult(t, wantRes)
			for _, plan := range faults.Names() {
				t.Run(plan, func(t *testing.T) {
					inj := chaosInjector(t, plan, nil, 3)
					workers := make([]shard.Worker, 3)
					for i := range workers {
						workers[i] = shard.InjectFaults(&shard.InProcWorker{Dir: t.TempDir()}, inj.State(i))
					}
					gotRes, gotStore := chaosDistributedRun(t, c.spec, meta, workers)
					if got := testutil.EncodeResult(t, gotRes); got != want {
						t.Errorf("campaign result differs from fault-free run under plan %q", plan)
					}
					assertStoresEqual(t, gotStore, wantStore, c.orderSensitive, "cells.jsonl")
				})
			}
		})
	}
}

// TestChaosHTTPTransportFaults runs every plan against real worker
// servers with the faults injected at the HTTP transport — torn
// responses cut live bodies, stalls hold live connections against the
// per-attempt deadline — and demands the same byte identity.
func TestChaosHTTPTransportFaults(t *testing.T) {
	plan := compileLoopbackDoc(t, loopbackDoc)
	spec := plan.Campaign.Spec
	meta := sharedMeta(t, spec, "")
	wantRes, wantStore := singleRun(t, spec, meta)
	want := testutil.EncodeResult(t, wantRes)

	for _, name := range faults.Names() {
		t.Run(name, func(t *testing.T) {
			params := map[string]float64{}
			if name == "stall" {
				// Stall far past the per-attempt deadline: the attempt
				// must be cut short and retried, not waited out.
				params["delayMs"] = 200
			}
			inj := chaosInjector(t, name, params, 2)
			srv1 := httptest.NewServer(shard.NewWorkerServer(t.TempDir()).Handler())
			defer srv1.Close()
			srv2 := httptest.NewServer(shard.NewWorkerServer(t.TempDir()).Handler())
			defer srv2.Close()
			workers := []shard.Worker{
				&shard.HTTPWorker{URL: srv1.URL, AttemptTimeout: 50 * time.Millisecond,
					Client: &http.Client{Transport: inj.Transport(0, nil)}},
				&shard.HTTPWorker{URL: srv2.URL, AttemptTimeout: 50 * time.Millisecond,
					Client: &http.Client{Transport: inj.Transport(1, nil)}},
			}
			res, shards, err := shard.Run(shard.Campaign{
				Spec:     spec,
				SpecDoc:  plan.Bytes,
				RunID:    "r1",
				Meta:     meta,
				Workers:  workers,
				Fallback: &shard.InProcWorker{},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Err(); err != nil {
				t.Fatal(err)
			}
			if got := testutil.EncodeResult(t, res); got != want {
				t.Errorf("campaign result differs from fault-free run under transport plan %q", name)
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
			assertStoresEqual(t, dst, wantStore, true, "cells.jsonl")
		})
	}
}

// TestChaosGracefulDegradation kills the entire remote fleet (every
// worker a crash victim) and proves the coordinator absorbs the
// campaign locally: the run completes, its one shard holds the
// absorbed cells, and the merge is still byte-identical.
func TestChaosGracefulDegradation(t *testing.T) {
	spec := testutil.TwoCloudSpec(t, 41, 0)
	meta := sharedMeta(t, spec, "")
	wantRes, wantStore := singleRun(t, spec, meta)
	want := testutil.EncodeResult(t, wantRes)

	inj := chaosInjector(t, "crash", map[string]float64{"victims": 3}, 3)
	workers := make([]shard.Worker, 3)
	for i := range workers {
		// Storeless workers: when the whole fleet is dead nothing was
		// persisted remotely, and the merge needs no worker store.
		workers[i] = shard.InjectFaults(&shard.InProcWorker{}, inj.State(i))
	}
	res, shards, err := shard.Run(shard.Campaign{
		Spec:     spec,
		RunID:    "r1",
		Meta:     meta,
		Workers:  workers,
		Fallback: &shard.InProcWorker{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if got := testutil.EncodeResult(t, res); got != want {
		t.Error("absorbed campaign result differs from fault-free run")
	}
	if len(shards) != 1 {
		t.Fatalf("collected %d shards, want exactly the synthesized one", len(shards))
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
	assertStoresEqual(t, dst, wantStore, true, "cells.jsonl")
}

// TestChaosResumeReExecutesNothing kills a campaign mid-fault — every
// worker crashes after two successful batches, no fallback — then
// resumes over the same worker stores and proves phase 2 re-executes
// zero already-persisted cells (restored cells never fire the
// Progress hook) while still merging byte-identical.
func TestChaosResumeReExecutesNothing(t *testing.T) {
	spec := testutil.EC2Spec(t, 7, 0)
	spec.Repetitions = 8
	spec.Stopping = fleet.StoppingSpec{ErrorBound: 0.001, MaxReps: 12}
	meta := sharedMeta(t, spec, "")
	wantRes, wantStore := singleRun(t, spec, meta)
	want := testutil.EncodeResult(t, wantRes)

	dirs := []string{t.TempDir(), t.TempDir()}

	// Phase 1: both workers crash from their second interaction on,
	// and with no fallback the campaign dies mid-flight — after
	// persisting its first batch.
	inj := chaosInjector(t, "crash", map[string]float64{"victims": 2, "at": 1}, 2)
	phase1 := make([]shard.Worker, 2)
	for i := range phase1 {
		phase1[i] = shard.InjectFaults(&shard.InProcWorker{Dir: dirs[i]}, inj.State(i))
	}
	_, _, err := shard.Run(shard.Campaign{
		Spec:    spec,
		RunID:   "r1",
		Meta:    meta,
		Workers: phase1,
	})
	if err == nil {
		t.Fatal("phase 1 survived a fleet-wide crash with no fallback")
	}
	persisted := make(map[string]bool)
	for _, dir := range dirs {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := st.Cells("r1")
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range cells {
			persisted[rec.Label] = true
		}
	}
	if len(persisted) == 0 {
		t.Fatal("phase 1 persisted nothing before dying — the resume proves nothing")
	}

	// Phase 2: a fresh fleet over the same stores. Each worker resumes
	// its shard run; any cell persisted in phase 1 must be restored,
	// not re-executed. The hook is shared across both workers'
	// concurrent RunCells, so it locks.
	var mu sync.Mutex
	reexecuted := 0
	spec2 := spec
	spec2.Progress = func(ev fleet.Progress) {
		if persisted[ev.Result.Cell.Label()] {
			mu.Lock()
			reexecuted++
			mu.Unlock()
		}
	}
	phase2 := []shard.Worker{
		&shard.InProcWorker{Dir: dirs[0]},
		&shard.InProcWorker{Dir: dirs[1]},
	}
	res, shards, err := shard.Run(shard.Campaign{
		Spec:    spec2,
		RunID:   "r1",
		Meta:    meta,
		Workers: phase2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if reexecuted != 0 {
		t.Errorf("resume re-executed %d cells phase 1 had already persisted (of %d persisted)", reexecuted, len(persisted))
	}
	if got := testutil.EncodeResult(t, res); got != want {
		t.Error("resumed campaign result differs from fault-free run")
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
	assertStoresEqual(t, dst, wantStore, false, "cells.jsonl")
}

// TestChaosVictimChoiceIsSeeded pins the injection discipline: victim
// selection comes from a substream of the plan seed, so equal seeds
// replay the same schedule and different seeds move it.
func TestChaosVictimChoiceIsSeeded(t *testing.T) {
	a := chaosInjector(t, "crash", nil, 5)
	b := chaosInjector(t, "crash", nil, 5)
	if fmt.Sprint(a.Victims()) != fmt.Sprint(b.Victims()) {
		t.Errorf("same seed chose different victims: %v vs %v", a.Victims(), b.Victims())
	}
	seen := map[string]bool{fmt.Sprint(a.Victims()): true}
	for seed := uint64(1); seed < 16; seed++ {
		inj, err := (faults.Plan{Name: "crash"}).Injector(seed, 5)
		if err != nil {
			t.Fatal(err)
		}
		seen[fmt.Sprint(inj.Victims())] = true
	}
	if len(seen) < 2 {
		t.Error("victim choice ignores the seed entirely")
	}
}
