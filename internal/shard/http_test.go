package shard_test

// Loopback test of the HTTP transport: real worker servers behind
// httptest, real HTTPWorker clients, and the same byte-identity bar
// as the in-process tests — a cell whose series crossed the wire must
// be indistinguishable from one executed locally.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cloudvar/internal/expspec"
	"cloudvar/internal/shard"
	"cloudvar/internal/store"
	"cloudvar/internal/testutil"
)

const loopbackDoc = `
schemaVersion: 1
name: loopback
campaign:
  profiles:
    - cloud: ec2
      instance: c5.xlarge
  regimes:
    - full-speed
    - 10-30
  repetitions: 2
  hours: 0.02
  seed: 13
`

// compileLoopbackDoc compiles the shared test document, returning the
// plan (canonical bytes + executable spec).
func compileLoopbackDoc(t *testing.T, doc string) expspec.Plan {
	t.Helper()
	d, err := expspec.Decode([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := expspec.Compile(d)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Campaign == nil {
		t.Fatal("document compiled without a campaign")
	}
	return plan
}

func TestHTTPWorkersByteIdentity(t *testing.T) {
	plan := compileLoopbackDoc(t, loopbackDoc)
	spec := plan.Campaign.Spec
	meta := sharedMeta(t, spec, "")
	meta.ExperimentSpec = plan.Bytes
	meta.ExperimentSpecHash = plan.Hash
	wantRes, wantStore := singleRun(t, spec, meta)
	want := testutil.EncodeResult(t, wantRes)

	srv1 := httptest.NewServer(shard.NewWorkerServer(t.TempDir()).Handler())
	defer srv1.Close()
	srv2 := httptest.NewServer(shard.NewWorkerServer(t.TempDir()).Handler())
	defer srv2.Close()
	workers := []shard.Worker{
		&shard.HTTPWorker{URL: srv1.URL},
		&shard.HTTPWorker{URL: srv2.URL},
	}

	gotRes, shards, err := shard.Run(shard.Campaign{
		Spec:    spec,
		SpecDoc: plan.Bytes,
		RunID:   "r1",
		Meta:    meta,
		Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := gotRes.Err(); err != nil {
		t.Fatal(err)
	}
	if got := testutil.EncodeResult(t, gotRes); got != want {
		t.Error("campaign result differs from single-process run across HTTP workers")
	}
	if len(shards) != 1 {
		t.Fatalf("collected %d shard stores, want 1", len(shards))
	}
	dst := testutil.TempStore(t)
	merged, err := store.MergeShards(dst, "r1", shards, gotRes.StoredLabels())
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()
	if err := merged.RecordPrecision(gotRes.Groups); err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, dst, wantStore, true, "cells.jsonl")
}

// TestHTTPWorkerReassignment kills one of the two worker processes
// after it has executed (and persisted) part of its shard; the
// coordinator must finish the campaign on the survivor and the merge
// must still be byte-identical to a single-process run.
func TestHTTPWorkerReassignment(t *testing.T) {
	plan := compileLoopbackDoc(t, loopbackDoc)
	spec := plan.Campaign.Spec
	meta := sharedMeta(t, spec, "")
	wantRes, wantStore := singleRun(t, spec, meta)
	want := testutil.EncodeResult(t, wantRes)

	srv1 := httptest.NewServer(shard.NewWorkerServer(t.TempDir()).Handler())
	defer srv1.Close()
	srv2 := httptest.NewServer(shard.NewWorkerServer(t.TempDir()).Handler())

	// Worker 2 dies before the campaign starts — connection refused is
	// the transport failure the retry ring exists for. (A worker that
	// dies mid-shard is covered by the in-process flakyWorker test.)
	srv2.Close()

	gotRes, shards, err := shard.Run(shard.Campaign{
		Spec:    spec,
		SpecDoc: plan.Bytes,
		RunID:   "r1",
		Meta:    meta,
		Workers: []shard.Worker{
			&shard.HTTPWorker{URL: srv1.URL},
			&shard.HTTPWorker{URL: srv2.URL},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := gotRes.Err(); err != nil {
		t.Fatal(err)
	}
	if got := testutil.EncodeResult(t, gotRes); got != want {
		t.Error("campaign result differs from single-process run after losing an HTTP worker")
	}
	// Run's one shard carries every cell, the survivor's answers.
	if len(shards) != 1 {
		t.Fatalf("collected %d shard stores, want 1 (the survivor)", len(shards))
	}
	dst := testutil.TempStore(t)
	merged, err := store.MergeShards(dst, "r1", shards, gotRes.StoredLabels())
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()
	if err := merged.RecordPrecision(gotRes.Groups); err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, dst, wantStore, true, "cells.jsonl")
}

// TestHTTPWorkerRefusesSpecKeyMismatch pins the version-skew guard: a
// worker whose compilation of the document disagrees with the
// coordinator's spec key must refuse to execute, never silently write
// a store under the wrong identity.
func TestHTTPWorkerRefusesSpecKeyMismatch(t *testing.T) {
	plan := compileLoopbackDoc(t, loopbackDoc)
	// The coordinator runs a different campaign (another seed) but
	// ships the original document — exactly what mismatched binaries
	// or a stale document cache would produce.
	tampered := compileLoopbackDoc(t, strings.Replace(loopbackDoc, "seed: 13", "seed: 14", 1))
	spec := tampered.Campaign.Spec
	meta := sharedMeta(t, spec, "")

	srv := httptest.NewServer(shard.NewWorkerServer(t.TempDir()).Handler())
	defer srv.Close()

	_, _, err := shard.Run(shard.Campaign{
		Spec:    spec,
		SpecDoc: plan.Bytes, // compiles to seed 13, not 14
		RunID:   "r1",
		Meta:    meta,
		Workers: []shard.Worker{&shard.HTTPWorker{URL: srv.URL}},
	})
	if err == nil {
		t.Fatal("worker executed a campaign whose document does not compile to the coordinator's spec key")
	}
	if !strings.Contains(err.Error(), "spec key") {
		t.Errorf("want a spec-key refusal, got: %v", err)
	}
}

// TestWorkerServesShardFromDiskAfterRestart pins the restart path: a
// worker process that restarted mid-campaign has an empty in-memory
// runs map, but its shard store survived on disk. GET /v1/shard must
// serve it from there — a 404 would claim the worker never persisted
// the cells it holds.
func TestWorkerServesShardFromDiskAfterRestart(t *testing.T) {
	plan := compileLoopbackDoc(t, loopbackDoc)
	spec := plan.Campaign.Spec
	meta := sharedMeta(t, spec, "")
	dir := t.TempDir()
	srv := httptest.NewServer(shard.NewWorkerServer(dir).Handler())
	res, shards, err := shard.Run(shard.Campaign{
		Spec:    spec,
		SpecDoc: plan.Bytes,
		RunID:   "r1",
		Meta:    meta,
		Workers: []shard.Worker{&shard.HTTPWorker{URL: srv.URL}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if len(shards) != 1 {
		t.Fatalf("collected %d shard stores, want 1", len(shards))
	}
	srv.Close()

	// "Restart" the worker: a fresh server over the same directory.
	srv2 := httptest.NewServer(shard.NewWorkerServer(dir).Handler())
	defer srv2.Close()
	resp, err := http.Get(srv2.URL + "/v1/shard?run=r1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted worker answered %s, want 200 from its disk store: %s", resp.Status, b)
	}
	d, err := store.DecodeShardData(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Cells) != len(shards[0].Cells) {
		t.Errorf("restarted worker served %d cells, the live worker served %d", len(d.Cells), len(shards[0].Cells))
	}

	// A run the worker never persisted is still a 404.
	resp2, err := http.Get(srv2.URL + "/v1/shard?run=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown run answered %s, want 404", resp2.Status)
	}
}

// TestWorkerRefusesRunIDReuseAcrossCampaigns pins the cache-hit guard:
// once a run ID is bound to a campaign, a request carrying a different
// spec key must be refused on every subsequent use, not only on first
// creation — otherwise cells would execute under the wrong compiled
// spec and persist into the other campaign's shard store.
func TestWorkerRefusesRunIDReuseAcrossCampaigns(t *testing.T) {
	plan := compileLoopbackDoc(t, loopbackDoc)
	spec := plan.Campaign.Spec
	key, err := store.SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(shard.NewWorkerServer(t.TempDir()).Handler())
	defer srv.Close()

	post := func(specKey string) *http.Response {
		t.Helper()
		body := fmt.Sprintf(`{"run_id":"r1","spec_key":%q,"spec_doc":%s,"index":0,"count":1,"meta":{"created_unix":1},"cells":[%q]}`,
			specKey, plan.Bytes, spec.Cells()[0].Label())
		resp, err := http.Post(srv.URL+"/v1/execute", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Bind r1 to the campaign.
	resp := post(key)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first execute answered %s, want 200", resp.Status)
	}

	// Reuse the run ID under a forged spec key: the cached campaign
	// must re-verify and refuse.
	resp2 := post(strings.Repeat("f", len(key)))
	defer resp2.Body.Close()
	b, _ := io.ReadAll(resp2.Body)
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("conflicting execute answered %s, want 400: %s", resp2.Status, b)
	}
	if !strings.Contains(string(b), "already bound") {
		t.Errorf("refusal does not name the binding conflict: %s", b)
	}
}

// TestTwoLanesOnOneWorkerFail: two coordinator lanes pointed at one
// worker process would persist both shards into one store. The worker
// binds the run to the stamp of the first request and refuses the
// other lane's, and the refusal is fatal — never absorbed by the
// local fallback.
func TestTwoLanesOnOneWorkerFail(t *testing.T) {
	plan := compileLoopbackDoc(t, loopbackDoc)
	spec := plan.Campaign.Spec
	srv := httptest.NewServer(shard.NewWorkerServer(t.TempDir()).Handler())
	defer srv.Close()
	_, _, err := shard.Run(shard.Campaign{
		Spec:     spec,
		SpecDoc:  plan.Bytes,
		RunID:    "r1",
		Meta:     sharedMeta(t, spec, ""),
		Workers:  []shard.Worker{&shard.HTTPWorker{URL: srv.URL}, &shard.HTTPWorker{URL: srv.URL}},
		Fallback: &shard.InProcWorker{},
	})
	if err == nil {
		t.Fatal("two lanes on one worker process ran a campaign")
	}
	if shard.Classify(err) != shard.ClassFatal {
		t.Errorf("a stamp conflict must be fatal: %v", err)
	}
	if !strings.Contains(err.Error(), "0/2") || !strings.Contains(err.Error(), "1/2") {
		t.Errorf("refusal does not name both stamps: %v", err)
	}
}

// TestHTTPWorkerNeedsSpecDoc: an HTTP worker cannot join a campaign
// built in code with no canonical document.
func TestHTTPWorkerNeedsSpecDoc(t *testing.T) {
	spec := testutil.EC2Spec(t, 7, 0)
	srv := httptest.NewServer(shard.NewWorkerServer(t.TempDir()).Handler())
	defer srv.Close()
	_, _, err := shard.Run(shard.Campaign{
		Spec:    spec,
		RunID:   "r1",
		Meta:    store.RunMeta{CreatedUnix: 1},
		Workers: []shard.Worker{&shard.HTTPWorker{URL: srv.URL}},
	})
	if err == nil || !strings.Contains(err.Error(), "spec document") {
		t.Fatalf("want a missing-spec-document error, got: %v", err)
	}
}

// TestBindingRefusalsThroughBothFrontDoors: a worker directory whose
// run r1 is stamped 0/2 for the seed-13 campaign refuses another shard
// stamp and another spec, whether it is reached in process through
// InProcWorker.Begin or over HTTP by a restarted WorkerServer. Both
// refusals are fatal at the coordinator, never absorbed by the
// fallback.
func TestBindingRefusalsThroughBothFrontDoors(t *testing.T) {
	plan := compileLoopbackDoc(t, loopbackDoc)
	other := compileLoopbackDoc(t, strings.Replace(loopbackDoc, "seed: 13", "seed: 14", 1))
	key, err := store.SpecKey(plan.Campaign.Spec)
	if err != nil {
		t.Fatal(err)
	}
	otherKey, err := store.SpecKey(other.Campaign.Spec)
	if err != nil {
		t.Fatal(err)
	}
	runContext := func(p expspec.Plan, key string) shard.RunContext {
		return shard.RunContext{Spec: p.Campaign.Spec, SpecKey: key, SpecDoc: p.Bytes, RunID: "r1", Meta: sharedMeta(t, p.Campaign.Spec, "")}
	}
	dir := t.TempDir()
	first := &shard.InProcWorker{Dir: dir}
	if err := first.Begin(runContext(plan, key), 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name         string
		plan         expspec.Plan
		key          string
		index, count int
		want         []string
	}{
		{"foreign stamp", plan, key, 1, 2, []string{"stamp 0/2", "shard 1/2"}},
		{"foreign spec", other, otherKey, 0, 2, []string{key[:12]}},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/in-process", func(t *testing.T) {
			w := &shard.InProcWorker{Dir: dir}
			err := w.Begin(runContext(tc.plan, tc.key), tc.index, tc.count)
			if err == nil {
				w.Close()
				t.Fatal("Begin bound a run on disk it must refuse")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("refusal %q does not name %q", err, want)
				}
			}
		})
		t.Run(tc.name+"/http", func(t *testing.T) {
			srv := httptest.NewServer(shard.NewWorkerServer(dir).Handler())
			defer srv.Close()
			body := fmt.Sprintf(`{"run_id":"r1","spec_key":%q,"spec_doc":%s,"index":%d,"count":%d,"meta":{"created_unix":1},"cells":[]}`,
				tc.key, tc.plan.Bytes, tc.index, tc.count)
			resp, err := http.Post(srv.URL+"/v1/execute", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("restarted worker answered %s, want 400: %s", resp.Status, b)
			}
			for _, want := range tc.want {
				if !strings.Contains(string(b), want) {
					t.Errorf("refusal %s does not name %q", b, want)
				}
			}
		})
	}

	// Through the coordinator: one HTTP worker (stamp 0/1 against the
	// 0/2 on disk, or the seed-14 spec) and a fallback that must stay
	// idle.
	for _, p := range []expspec.Plan{plan, other} {
		srv := httptest.NewServer(shard.NewWorkerServer(dir).Handler())
		fallback := &recordingWorker{}
		_, _, err := shard.Run(shard.Campaign{
			Spec:     p.Campaign.Spec,
			SpecDoc:  p.Bytes,
			RunID:    "r1",
			Meta:     sharedMeta(t, p.Campaign.Spec, ""),
			Workers:  []shard.Worker{&shard.HTTPWorker{URL: srv.URL}},
			Fallback: fallback,
		})
		srv.Close()
		if err == nil || shard.Classify(err) != shard.ClassFatal {
			t.Errorf("seed %d: campaign over a refusing worker: err %v, want a fatal refusal", p.Campaign.Spec.Seed, err)
		}
		if len(fallback.calls) != 0 {
			t.Errorf("seed %d: the fallback absorbed %d batches of a refused shard", p.Campaign.Spec.Seed, len(fallback.calls))
		}
	}
}

// TestWorkerServerConcurrentExecutes: execute requests for one run
// arrive concurrently — the coordinator fans a batch's shards out at
// once, and a timed-out attempt may still be running when its retry
// lands. They share the run's one in-process worker, and every cell
// they persist is in the shard on disk after the run is closed.
func TestWorkerServerConcurrentExecutes(t *testing.T) {
	plan := compileLoopbackDoc(t, loopbackDoc)
	spec := plan.Campaign.Spec
	key, err := store.SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(shard.NewWorkerServer(t.TempDir()).Handler())
	defer srv.Close()
	cells := spec.Cells()
	var wg sync.WaitGroup
	for _, c := range cells {
		wg.Add(1)
		go func(label string) {
			defer wg.Done()
			body := fmt.Sprintf(`{"run_id":"r1","spec_key":%q,"spec_doc":%s,"index":0,"count":1,"meta":{"created_unix":1},"cells":[%q]}`,
				key, plan.Bytes, label)
			resp, err := http.Post(srv.URL+"/v1/execute", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				t.Errorf("execute %s answered %s: %s", label, resp.Status, b)
			}
		}(c.Label())
	}
	wg.Wait()
	resp, err := http.Post(srv.URL+"/v1/close?run=r1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(srv.URL + "/v1/shard?run=r1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	d, err := store.DecodeShardData(b)
	if err != nil {
		t.Fatalf("closed run's shard: %v (%s)", err, resp.Status)
	}
	if len(d.Cells) != len(cells) {
		t.Errorf("shard on disk holds %d cells, the concurrent requests executed %d", len(d.Cells), len(cells))
	}
}
