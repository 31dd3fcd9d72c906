package shard

// Frames answers travel with a Content-Length equal to their body, so
// the client reads each into one allocation of that length; a header
// that lies about the length cannot size that allocation.

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"cloudvar/internal/expspec"
	"cloudvar/internal/store"
)

// lengthDoc's cells are long enough (0.5 h of 10 s bins) that every
// frames answer outgrows the 2 KB net/http buffers before it picks a
// framing: without an explicit Content-Length those answers would be
// chunked.
const lengthDoc = `
schemaVersion: 1
name: wire-length
campaign:
  profiles:
    - cloud: ec2
      instance: c5.xlarge
  regimes:
    - full-speed
  repetitions: 3
  hours: 0.5
  seed: 21
`

// answer is one response as it arrived: the path asked, the declared
// Content-Length header and the body's real length.
type answer struct {
	path, declared string
	body           int
}

// answerRecorder is a transport that records every answer.
type answerRecorder struct {
	mu      sync.Mutex
	answers []answer
}

func (r *answerRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.answers = append(r.answers, answer{path: req.URL.Path, declared: resp.Header.Get("Content-Length"), body: len(body)})
	r.mu.Unlock()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// TestFramesAnswersCarryContentLength: every execute and shard answer
// over a live worker declares exactly its body's length. A campaign
// sends only execute requests, so the shard answer comes from calling
// HTTPWorker.Shard afterwards.
func TestFramesAnswersCarryContentLength(t *testing.T) {
	doc, err := expspec.Decode([]byte(lengthDoc))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := expspec.Compile(doc)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewWorkerServer(t.TempDir()).Handler())
	defer srv.Close()
	rec := &answerRecorder{}
	hw := &HTTPWorker{URL: srv.URL, Client: &http.Client{Transport: rec}}
	res, shards, err := Run(Campaign{
		Spec:    plan.Campaign.Spec,
		SpecDoc: plan.Bytes,
		RunID:   "r1",
		Meta:    store.RunMeta{CreatedUnix: 1},
		Workers: []Worker{hw},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if len(shards) != 1 {
		t.Fatalf("collected %d shards, want 1", len(shards))
	}
	for _, a := range rec.answers {
		if a.path == "/v1/shard" {
			t.Fatal("Run fetched the worker's shard store; it must merge the execute answers")
		}
	}
	if _, ok, err := hw.Shard(); err != nil || !ok {
		t.Fatalf("fetching the worker's shard: ok=%v, %v", ok, err)
	}
	framed := map[string]int{}
	for _, a := range rec.answers {
		if a.path != "/v1/execute" && a.path != "/v1/shard" {
			continue
		}
		if a.declared != strconv.Itoa(a.body) {
			t.Errorf("%s answered %d bytes with Content-Length %q", a.path, a.body, a.declared)
		}
		if a.body > 2048 {
			framed[a.path]++
		}
	}
	if framed["/v1/execute"] == 0 || framed["/v1/shard"] == 0 {
		t.Fatalf("no answer outgrew the server's buffering (%v), so the test proves nothing", rec.answers)
	}
}

// TestHTTPWorkerLyingContentLength: a worker that declares a terabyte
// and sends four bytes fails the call with a transient transport error,
// and the client allocates nowhere near the declared length — not even
// the up-front cap.
func TestHTTPWorkerLyingContentLength(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", framesMediaType)
		w.Header().Set("Content-Length", strconv.FormatInt(1<<40, 10))
		w.Write([]byte{1, 0, 2, 3})
	}))
	defer srv.Close()
	w := &HTTPWorker{URL: srv.URL}
	if err := w.Begin(RunContext{SpecDoc: []byte("{}"), RunID: "r1"}, 0, 1); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, ok, err := w.Shard()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("a cut body decoded into a shard (%v, %d cells)", ok, len(d.Cells))
	}
	if Classify(err) != ClassTransient {
		t.Errorf("a body cut short of its declared length must classify transient: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= maxBodyPrealloc {
		t.Errorf("the call allocated %d bytes, at least the %d-byte up-front cap", grew, maxBodyPrealloc)
	}
}

// TestReadBody: a declared length is read into one allocation of
// exactly that length, a body that ends early is an error, and a body
// of unknown length reads whole.
func TestReadBody(t *testing.T) {
	payload := bytes.Repeat([]byte("frame"), 1000)
	resp := func(declared int64, body []byte) *http.Response {
		return &http.Response{ContentLength: declared, Body: io.NopCloser(bytes.NewReader(body))}
	}
	b, err := readBody(resp(int64(len(payload)), payload))
	if err != nil || !bytes.Equal(b, payload) {
		t.Fatalf("known length: %d bytes, %v", len(b), err)
	}
	if cap(b) != len(payload) {
		t.Errorf("known length read into a %d-byte buffer, want one of %d", cap(b), len(payload))
	}
	if _, err := readBody(resp(int64(len(payload))+1, payload)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("a body short of its declared length: %v, want io.ErrUnexpectedEOF", err)
	}
	if b, err := readBody(resp(-1, payload)); err != nil || !bytes.Equal(b, payload) {
		t.Errorf("unknown length: %d bytes, %v", len(b), err)
	}
}
