package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cloudvar/internal/expspec"
	"cloudvar/internal/fleet"
	"cloudvar/internal/shard"
	"cloudvar/internal/store"
	"cloudvar/internal/testutil"
)

// specDoc renders a small campaign document; runID names the stored
// run ("" lets the service derive one from the spec hash).
func specDoc(seed uint64, runID string) string {
	doc := fmt.Sprintf(`{
  "schemaVersion": 2,
  "campaign": {
    "profiles": [{"cloud": "ec2", "instance": "c5.xlarge"}],
    "regimes": ["full-speed", "10-30"],
    "repetitions": 2,
    "hours": 0.02,
    "seed": %d
  }`, seed)
	if runID != "" {
		doc += fmt.Sprintf(`,
  "store": {"dir": "unused", "runId": %q}`, runID)
	}
	return doc + "\n}\n"
}

// startService boots a coordinator over a fresh store with the given
// worker URLs and returns its base URL plus the store directory.
func startService(t *testing.T, workers []string) (string, string) {
	t.Helper()
	dir := t.TempDir()
	svc, err := newService(dir, workers)
	if err != nil {
		t.Fatal(err)
	}
	svc.start()
	t.Cleanup(svc.stop)
	srv := httptest.NewServer(svc.handler())
	t.Cleanup(srv.Close)
	return srv.URL, dir
}

// submit posts a spec document and decodes the run state.
func submit(t *testing.T, base, doc string) runState {
	t.Helper()
	resp, err := http.Post(base+"/v1/runs", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, buf.String())
	}
	var rs runState
	if err := json.NewDecoder(resp.Body).Decode(&rs); err != nil {
		t.Fatal(err)
	}
	return rs
}

// awaitDone polls a run's status until it leaves the queue.
func awaitDone(t *testing.T, base, id string) runState {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var rs runState
		err = json.NewDecoder(resp.Body).Decode(&rs)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch rs.Status {
		case statusDone:
			return rs
		case statusFailed:
			t.Fatalf("run %s failed: %s", id, rs.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in status %s", id, rs.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// singleProcessReference executes the same document in-process with
// one worker and returns the spec, its keys and the cell records —
// the ground truth every service run must match.
func singleProcessReference(t *testing.T, doc string) (fleet.CampaignSpec, [2]string, []store.CellRecord) {
	t.Helper()
	d, err := expspec.Decode([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := expspec.Compile(d)
	if err != nil {
		t.Fatal(err)
	}
	spec := plan.Campaign.Spec
	keys := testutil.SpecKeys(t, spec)
	st := testutil.TempStore(t)
	run, err := st.CreateWithMeta("ref", spec, store.RunMeta{CreatedUnix: 1})
	if err != nil {
		t.Fatal(err)
	}
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
	run.Close()
	cells, err := st.Cells("ref")
	if err != nil {
		t.Fatal(err)
	}
	return spec, keys, cells
}

// assertRunMatchesReference checks a service-stored run against the
// single-process ground truth: manifest keys equal, and every cell
// record byte-identical.
func assertRunMatchesReference(t *testing.T, dir, runID string, keys [2]string, want []store.CellRecord) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := st.Manifest(runID)
	if err != nil {
		t.Fatal(err)
	}
	if m.SpecKey != keys[0] || m.MatrixKey != keys[1] {
		t.Errorf("merged run keys (%.12s, %.12s) differ from single-process keys (%.12s, %.12s)",
			m.SpecKey, m.MatrixKey, keys[0], keys[1])
	}
	if m.Shard != nil {
		t.Error("merged run still carries a shard stamp")
	}
	got, err := st.Cells(runID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("merged run has %d cells, single-process run has %d", len(got), len(want))
	}
	index := make(map[string][]byte, len(want))
	for _, rec := range want {
		b, _ := json.Marshal(rec)
		index[rec.Label] = b
	}
	for _, rec := range got {
		b, _ := json.Marshal(rec)
		if !bytes.Equal(b, index[rec.Label]) {
			t.Errorf("cell %s differs from the single-process run", rec.Label)
		}
	}
}

func TestServiceInProcessShards(t *testing.T) {
	base, dir := startService(t, nil)
	doc := specDoc(13, "")
	rs := submit(t, base, doc)
	if rs.ID == "" || !strings.HasPrefix(rs.ID, "r-") {
		t.Fatalf("derived run id %q, want r-<hash prefix>", rs.ID)
	}
	awaitDone(t, base, rs.ID)
	_, keys, want := singleProcessReference(t, doc)
	assertRunMatchesReference(t, dir, rs.ID, keys, want)

	// The manifest endpoint serves the stored bytes verbatim.
	resp, err := http.Get(base + "/v1/runs/" + rs.ID + "/manifest")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m store.Manifest
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.SpecKey != keys[0] {
		t.Error("served manifest carries the wrong spec key")
	}

	// Resubmitting the same document is idempotent: same run, served
	// from the registry, no second execution.
	again := submit(t, base, doc)
	if again.ID != rs.ID || again.Status != statusDone {
		t.Errorf("resubmit returned %+v, want the completed run %s", again, rs.ID)
	}
}

func TestServiceHTTPWorkers(t *testing.T) {
	w1 := httptest.NewServer(shard.NewWorkerServer(t.TempDir()).Handler())
	defer w1.Close()
	w2 := httptest.NewServer(shard.NewWorkerServer(t.TempDir()).Handler())
	defer w2.Close()
	base, dir := startService(t, []string{w1.URL, w2.URL})

	doc := specDoc(13, "day1")
	rs := submit(t, base, doc)
	if rs.ID != "day1" {
		t.Fatalf("run id %q, want the spec's day1", rs.ID)
	}
	if rs.Shards != 2 {
		t.Fatalf("shards = %d, want one per worker", rs.Shards)
	}
	awaitDone(t, base, "day1")
	_, keys, want := singleProcessReference(t, doc)
	assertRunMatchesReference(t, dir, "day1", keys, want)
}

func TestServiceCachedAndConflictingRuns(t *testing.T) {
	dir := t.TempDir()
	svc, err := newService(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.start()
	srv := httptest.NewServer(svc.handler())
	doc := specDoc(13, "day1")
	submit(t, srv.URL, doc)
	awaitDone(t, srv.URL, "day1")
	srv.Close()
	svc.stop()

	// A fresh service over the same store serves the run cached.
	svc2, err := newService(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc2.start()
	defer svc2.stop()
	srv2 := httptest.NewServer(svc2.handler())
	defer srv2.Close()
	rs := submit(t, srv2.URL, doc)
	if rs.Status != statusDone || !rs.Cached {
		t.Errorf("restarted service returned %+v, want a cached done run", rs)
	}

	// The same run ID from a different campaign is refused, not
	// overwritten.
	resp, err := http.Post(srv2.URL+"/v1/runs", "application/json", strings.NewReader(specDoc(99, "day1")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("conflicting submit returned %s, want 409", resp.Status)
	}
}

func TestServiceDriftReport(t *testing.T) {
	base, dir := startService(t, nil)
	submit(t, base, specDoc(13, "day1"))
	awaitDone(t, base, "day1")
	// Same campaign matrix, different seed: a legitimate drift pair
	// (the matrix key ignores the seed).
	submit(t, base, specDoc(14, "day8"))
	awaitDone(t, base, "day8")

	resp, err := http.Get(base + "/v1/runs/day8/drift?baseline=day1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drift endpoint: %s: %s", resp.Status, buf.String())
	}
	if !strings.Contains(buf.String(), "day8") {
		t.Errorf("drift report does not mention the compared run:\n%s", buf.String())
	}

	// Without a baseline, or with a malformed run ID on either side,
	// the request is refused; a run the store lacks is not found.
	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for path, want := range map[string]int{
		"/v1/runs/day8/drift":                http.StatusBadRequest,
		"/v1/runs/day8/drift?baseline=.day1": http.StatusBadRequest,
		"/v1/runs/-day8/drift?baseline=day1": http.StatusBadRequest,
		"/v1/runs/day8/drift?baseline=day99": http.StatusNotFound,
		"/v1/runs/day99/drift?baseline=day1": http.StatusNotFound,
	} {
		if got := status(path); got != want {
			t.Errorf("GET %s answered %d, want %d", path, got, want)
		}
	}

	// A stored run whose cells no longer read is the server's failure,
	// not a missing run.
	cells := filepath.Join(dir, "runs", "day8", "cells.jsonl")
	if _, err := os.Stat(cells); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cells, []byte("{\"schema\": 2,\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := status("/v1/runs/day8/drift?baseline=day1"); got != http.StatusInternalServerError {
		t.Errorf("drift over a run with corrupt cells answered %d, want 500", got)
	}
}

// TestServiceRejectsShardsWorkersDisagreement: a spec that explicitly
// declares a partition width must not be silently re-partitioned to
// the service's default worker fleet — the disagreement is a 409,
// mirroring expspec's own shards-vs-workers agreement rule.
func TestServiceRejectsShardsWorkersDisagreement(t *testing.T) {
	base, _ := startService(t, []string{"http://127.0.0.1:1", "http://127.0.0.1:2"})
	doc := strings.TrimSuffix(specDoc(13, ""), "\n}\n") + `,
  "sharding": {"shards": 3}
}
`
	resp, err := http.Post(base+"/v1/runs", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("disagreeing shard count answered %s, want 409: %s", resp.Status, buf.String())
	}
	if !strings.Contains(buf.String(), "sharding.shards=3") {
		t.Errorf("refusal does not surface the disagreement: %s", buf.String())
	}

	// An agreeing declaration (shards == worker count) is accepted.
	doc2 := strings.TrimSuffix(specDoc(13, ""), "\n}\n") + `,
  "sharding": {"shards": 2}
}
`
	rs := submit(t, base, doc2)
	if rs.Shards != 2 {
		t.Errorf("agreeing spec got %d shards, want 2", rs.Shards)
	}
}

func TestServiceRejectsBadSubmissions(t *testing.T) {
	base, _ := startService(t, nil)
	cases := map[string]string{
		"not a spec":  "{",
		"no campaign": `{"schemaVersion": 2, "apps": ["kmeans"]}`,
	}
	for name, doc := range cases {
		resp, err := http.Post(base+"/v1/runs", "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: returned %s, want 400", name, resp.Status)
		}
	}
	resp, err := http.Get(base + "/v1/runs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown run returned %s, want 404", resp.Status)
	}
}

// TestWorkersFlagRejectsEmptyAndRepeatedURLs: -workers follows the rule
// sharding.workers does. An empty entry would be a lane that never
// answers, a repeated one two lanes on one worker, so campaignd exits 1
// at startup naming the entry. The -listen address is unusable, so a
// missed check fails on the listen error instead of serving forever.
func TestWorkersFlagRejectsEmptyAndRepeatedURLs(t *testing.T) {
	for _, c := range []struct{ list, want string }{
		{"http://127.0.0.1:7071,", "-workers[1]: empty worker URL"},
		{"http://127.0.0.1:7071,http://127.0.0.1:7071", `-workers[1]: duplicate worker "http://127.0.0.1:7071"`},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-dir", t.TempDir(), "-listen", "127.0.0.1:-1", "-workers", c.list}, &stdout, &stderr)
		if code != 1 || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("-workers %q: exit %d, stderr %q; want exit 1 naming %q", c.list, code, stderr.String(), c.want)
		}
	}
}
