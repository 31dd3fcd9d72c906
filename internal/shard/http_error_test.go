package shard_test

// Error-path coverage for the HTTP transport: what the worker client
// does with non-2xx garbage, truncated response bodies, and servers
// that stall before the headers — the raw material the resilience
// layer classifies and retries.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cloudvar/internal/fleet"
	"cloudvar/internal/shard"
	"cloudvar/internal/store"
)

// beginHTTPWorker binds an HTTPWorker to a compiled campaign without
// executing anything.
func beginHTTPWorker(t *testing.T, url string, timeout time.Duration) (*shard.HTTPWorker, []fleet.Cell) {
	t.Helper()
	plan := compileLoopbackDoc(t, loopbackDoc)
	spec := plan.Campaign.Spec
	key, err := store.SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	w := &shard.HTTPWorker{URL: url, AttemptTimeout: timeout}
	rc := shard.RunContext{Spec: spec, SpecKey: key, SpecDoc: plan.Bytes, RunID: "r1", Meta: store.RunMeta{CreatedUnix: 1}}
	if err := w.Begin(rc, 0, 1); err != nil {
		t.Fatal(err)
	}
	return w, spec.Cells()[:1]
}

func TestHTTPWorkerNon2xxGarbageBody(t *testing.T) {
	// A proxy or crash page answers 502 with HTML, not the error
	// envelope: the raw body must survive into the error text and the
	// status must classify transient.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
		fmt.Fprint(w, "<html>bad gateway</html>")
	}))
	defer srv.Close()
	w, cells := beginHTTPWorker(t, srv.URL, 0)
	_, err := w.Execute(cells)
	var se *shard.StatusError
	if !errors.As(err, &se) {
		t.Fatalf("want a StatusError, got %v", err)
	}
	if se.Code != http.StatusBadGateway || !strings.Contains(se.Msg, "bad gateway") {
		t.Errorf("StatusError lost the response: %+v", se)
	}
	if shard.Classify(err) != shard.ClassTransient {
		t.Error("a 502 must classify transient")
	}
}

func TestHTTPWorkerEnvelopeErrorIsDecodedAndFatal(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		shard.WriteHTTPError(w, http.StatusBadRequest, errors.New("shard: run r1 already bound"))
	}))
	defer srv.Close()
	w, cells := beginHTTPWorker(t, srv.URL, 0)
	_, err := w.Execute(cells)
	var se *shard.StatusError
	if !errors.As(err, &se) {
		t.Fatalf("want a StatusError, got %v", err)
	}
	if !strings.Contains(se.Msg, "already bound") || strings.Contains(se.Msg, "{") {
		t.Errorf("envelope not decoded to its message: %q", se.Msg)
	}
	if shard.Classify(err) != shard.ClassFatal {
		t.Error("a 400 protocol refusal must classify fatal")
	}
}

func TestHTTPWorkerTruncatedResponse(t *testing.T) {
	// The server dies mid-body: a syntactically cut JSON stream must
	// surface as a transient transport error, never as partial results.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "4096") // promise more than is sent
		fmt.Fprint(w, `{"results":[{"label":"ec2`)
	}))
	defer srv.Close()
	w, cells := beginHTTPWorker(t, srv.URL, 0)
	res, err := w.Execute(cells)
	if err == nil {
		t.Fatalf("truncated response decoded into %d results", len(res))
	}
	if shard.Classify(err) != shard.ClassTransient {
		t.Errorf("a torn response must classify transient: %v", err)
	}
}

func TestHTTPWorkerAttemptTimeoutCutsSlowHeaders(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release)
	w, cells := beginHTTPWorker(t, srv.URL, 30*time.Millisecond)
	start := time.Now()
	_, err := w.Execute(cells)
	if err == nil {
		t.Fatal("stalled server answered")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("per-attempt deadline took %v to fire", elapsed)
	}
	if shard.Classify(err) != shard.ClassTransient {
		t.Errorf("a deadline must classify transient: %v", err)
	}
}

func TestHTTPWorkerShardAttemptTimeout(t *testing.T) {
	// A worker that hangs while serving its shard must not block the
	// caller forever: the per-attempt deadline cuts GET /v1/shard like
	// any other call.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer srv.Close()
	w, _ := beginHTTPWorker(t, srv.URL, 30*time.Millisecond)
	start := time.Now()
	_, ok, err := w.Shard()
	if err == nil || ok {
		t.Fatalf("hung shard endpoint answered ok=%v err=%v", ok, err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("per-attempt deadline took %v to fire", elapsed)
	}
	if shard.Classify(err) != shard.ClassTransient {
		t.Errorf("a deadline must classify transient: %v", err)
	}
}

func TestHTTPWorkerWireSkewIsFatal(t *testing.T) {
	// A worker answering 200 in JSON speaks another wire format. That is
	// a deployment error every retry repeats: it must classify fatal
	// and fail the campaign, not end in silent local fallback.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"results":[]}`)
	}))
	defer srv.Close()
	w, cells := beginHTTPWorker(t, srv.URL, 0)
	if _, err := w.Execute(cells); err == nil || shard.Classify(err) != shard.ClassFatal {
		t.Errorf("execute answered in JSON: err %v, want a fatal wire-skew error", err)
	}
	if _, _, err := w.Shard(); err == nil || shard.Classify(err) != shard.ClassFatal {
		t.Errorf("shard answered in JSON: err %v, want a fatal wire-skew error", err)
	}

	plan := compileLoopbackDoc(t, loopbackDoc)
	_, _, err := shard.Run(shard.Campaign{
		Spec:     plan.Campaign.Spec,
		SpecDoc:  plan.Bytes,
		RunID:    "r1",
		Meta:     store.RunMeta{CreatedUnix: 1},
		Workers:  []shard.Worker{&shard.HTTPWorker{URL: srv.URL}},
		Fallback: &shard.InProcWorker{},
	})
	if err == nil || !strings.Contains(err.Error(), "wire format") {
		t.Fatalf("campaign over a skewed worker: err %v, want the wire-skew error", err)
	}
}

func TestHTTPWorkerHealth(t *testing.T) {
	srv := httptest.NewServer(shard.NewWorkerServer(t.TempDir()).Handler())
	w := &shard.HTTPWorker{URL: srv.URL}
	if err := w.Health(); err != nil {
		t.Errorf("live worker reported unhealthy: %v", err)
	}
	srv.Close()
	if err := w.Health(); err == nil {
		t.Error("dead worker reported healthy")
	}
}

// TestWorkerServerErrorEnvelope: an execute request that can never
// succeed is the client's fault — 400, which the coordinator treats as
// fatal instead of retrying — and answers the JSON envelope.
func TestWorkerServerErrorEnvelope(t *testing.T) {
	srv := httptest.NewServer(shard.NewWorkerServer(t.TempDir()).Handler())
	defer srv.Close()
	doc := compileLoopbackDoc(t, loopbackDoc).Bytes
	request := func(runID string, index, count int) string {
		return fmt.Sprintf(`{"run_id":%q,"spec_doc":%s,"index":%d,"count":%d,"meta":{"created_unix":1},"cells":[]}`, runID, doc, index, count)
	}
	cases := []struct {
		name, body, want string
	}{
		{"not json", "not json", "decoding execute request"},
		{"empty run id", request("", 0, 1), "run id"},
		{"dot-dot run id", request("../x", 0, 1), "run id"},
		{"slash run id", request("a/b", 0, 1), "run id"},
		{"zero count", request("r1", 0, 0), "shard stamp 0/0"},
		{"index at count", request("r1", 2, 2), "shard stamp 2/2"},
		{"negative index", request("r1", -1, 2), "shard stamp -1/2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/v1/execute", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("answered %s, want 400", resp.Status)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Errorf("error answered Content-Type %q, want application/json", ct)
			}
			var body shard.ErrorBody
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("error body is not the envelope: %v", err)
			}
			if body.Status != http.StatusBadRequest || !strings.Contains(body.Error, tc.want) {
				t.Errorf("envelope %+v, want status 400 and an error naming %q", body, tc.want)
			}
		})
	}
}

func TestWorkerServerRejectsOversizedExecute(t *testing.T) {
	srv := httptest.NewServer(shard.NewWorkerServer(t.TempDir()).Handler())
	defer srv.Close()
	huge := strings.NewReader(`{"run_id":"` + strings.Repeat("a", 17<<20) + `"}`)
	resp, err := http.Post(srv.URL+"/v1/execute", "application/json", huge)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized request answered %s, want 413", resp.Status)
	}
}

func TestWorkerServerHealthEndpoint(t *testing.T) {
	srv := httptest.NewServer(shard.NewWorkerServer(t.TempDir()).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("health answered %s, want 200", resp.Status)
	}
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Status != "ok" {
		t.Errorf("health body %+v (err %v), want status ok", body, err)
	}
}

// TestWorkerServerCloseFlushesRuns pins graceful worker shutdown: an
// executed run's handle is closed, and the shard store remains
// readable from disk afterwards.
func TestWorkerServerCloseFlushesRuns(t *testing.T) {
	dir := t.TempDir()
	ws := shard.NewWorkerServer(dir)
	srv := httptest.NewServer(ws.Handler())
	defer srv.Close()

	plan := compileLoopbackDoc(t, loopbackDoc)
	spec := plan.Campaign.Spec
	meta := sharedMeta(t, spec, "")
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
	if err := ws.Close(); err != nil {
		t.Fatalf("worker close: %v", err)
	}
	if err := ws.Close(); err != nil {
		t.Fatalf("second close not idempotent: %v", err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := st.Cells("r1")
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(shards[0].Cells) {
		t.Errorf("store holds %d cells after close, worker served %d", len(cells), len(shards[0].Cells))
	}
}
