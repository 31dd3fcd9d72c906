package shard

// HTTP transport: a campaignd worker process exposes its shard
// execution over a small HTTP API, and HTTPWorker is the
// coordinator-side client. The control plane is JSON — execute
// requests (spec document, metadata, cell labels), manifests, spec
// documents and the error envelope — but cells travel only as the
// store's CRC frames (store.AppendCellFrame), in the binary media type
// application/vnd.cloudvar.frames. Frames carry every float
// bit-exactly, and the client rebuilds summaries with
// fleet.SummarizeStored — the same append-order replay the store's
// resume path uses — so a cell that crossed the wire is byte-identical
// to one executed locally.
//
//	POST /v1/execute  — run cells of a campaign, creating (or, after
//	                    a restart, resuming) the worker's
//	                    shard-stamped store run on first use; answers
//	                    a frame or an error per cell
//	                    (appendExecuteResponse)
//	GET  /v1/shard    — the worker's persisted shard, as
//	                    store.ShardData.Encode bytes
//	POST /v1/close    — release a campaign's store handle
//	GET  /v1/health   — heartbeat (the breaker's half-open probe)
//	GET  /healthz     — liveness
//
// Both frames answers are encoded into one buffer sized up front and
// carry a Content-Length, so the client reads each into one allocation
// of that length (capped by maxBodyPrealloc). A 200 answer from
// execute or shard in any other media type comes from a worker
// speaking another wire format; the client refuses it as a fatal
// wire-skew error instead of retrying it into local fallback.
// Errors travel as a uniform JSON envelope (ErrorBody) with the
// status repeated in the body, so clients never have to scrape
// plain-text bodies; request bodies are capped with MaxBytesReader.
//
// The worker recompiles the campaign from the canonical expspec
// document. Compile is pure, so coordinator and worker hold equal
// specs; the worker still re-verifies the coordinator's SpecKey
// against its own compilation and refuses on mismatch — a version
// skew between binaries must fail loudly, not corrupt a store.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"cloudvar/internal/core"
	"cloudvar/internal/expspec"
	"cloudvar/internal/fleet"
	"cloudvar/internal/store"
)

// executeRequest is the body of POST /v1/execute.
type executeRequest struct {
	RunID   string          `json:"run_id"`
	SpecKey string          `json:"spec_key"`
	SpecDoc json.RawMessage `json:"spec_doc"`
	Index   int             `json:"index"`
	Count   int             `json:"count"`
	Meta    executeMeta     `json:"meta"`
	Cells   []string        `json:"cells"`
}

// executeMeta is store.RunMeta in wire form (RunMeta's []byte field
// would base64-encode; the document is JSON and ships as such).
type executeMeta struct {
	Fingerprints       map[string]core.Fingerprint `json:"fingerprints,omitempty"`
	CreatedUnix        int64                       `json:"created_unix"`
	ExperimentSpec     json.RawMessage             `json:"experiment_spec,omitempty"`
	ExperimentSpecHash string                      `json:"experiment_spec_hash,omitempty"`
	Encoding           string                      `json:"encoding,omitempty"`
}

func metaToWire(m store.RunMeta) executeMeta {
	return executeMeta{
		Fingerprints:       m.Fingerprints,
		CreatedUnix:        m.CreatedUnix,
		ExperimentSpec:     json.RawMessage(m.ExperimentSpec),
		ExperimentSpecHash: m.ExperimentSpecHash,
		Encoding:           m.Encoding,
	}
}

func metaFromWire(m executeMeta) store.RunMeta {
	return store.RunMeta{
		Fingerprints:       m.Fingerprints,
		CreatedUnix:        m.CreatedUnix,
		ExperimentSpec:     []byte(m.ExperimentSpec),
		ExperimentSpecHash: m.ExperimentSpecHash,
		Encoding:           m.Encoding,
	}
}

// framesMediaType is the Content-Type of the answers that carry
// cells: execute results and store.ShardData.
const framesMediaType = "application/vnd.cloudvar.frames"

// appendExecuteResponse encodes the answer to POST /v1/execute, one
// result per requested cell, in request order. Per-cell errors travel
// as strings — they are campaign facts, not transport failures.
//
//	response := uvarint(count) result{count}
//	result   := byte(0) frame                   (store.AppendCellFrame)
//	          | byte(1) str(label) str(error)
//	str      := uvarint(len) bytes
//
// The answer's length is computed first, so dst grows at most once.
func appendExecuteResponse(dst []byte, results []fleet.CellResult) ([]byte, error) {
	recs := make([]store.CellRecord, len(results))
	size := binary.MaxVarintLen64 + store.CellFrameHeadroom
	for i, res := range results {
		if res.Err != nil {
			size += 1 + wireStringLen(res.Cell.Label()) + wireStringLen(res.Err.Error())
			continue
		}
		rec, err := store.NewCellRecord(res)
		if err != nil {
			return nil, err
		}
		recs[i] = rec
		size += 1 + store.CellFrameLen(rec)
	}
	dst = slices.Grow(dst, size)
	dst = binary.AppendUvarint(dst, uint64(len(results)))
	for i, res := range results {
		if res.Err != nil {
			dst = append(dst, 1)
			dst = appendWireString(dst, res.Cell.Label())
			dst = appendWireString(dst, res.Err.Error())
			continue
		}
		var err error
		if dst, err = store.AppendCellFrame(append(dst, 0), recs[i]); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

func appendWireString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func wireStringLen(s string) int {
	var n [binary.MaxVarintLen64]byte
	return binary.PutUvarint(n[:], uint64(len(s))) + len(s)
}

// decodeExecuteResponse decodes the answer to an execute request for
// cells: exactly one result per cell, in order, each naming its cell,
// and nothing after the last. Summaries are left to the caller, which
// knows the campaign's summary mode.
func decodeExecuteResponse(b []byte, cells []fleet.Cell) ([]fleet.CellResult, error) {
	n, off := binary.Uvarint(b)
	if off <= 0 {
		return nil, fmt.Errorf("malformed result count")
	}
	if n != uint64(len(cells)) {
		return nil, fmt.Errorf("%d results for %d cells", n, len(cells))
	}
	results := make([]fleet.CellResult, len(cells))
	for i, cell := range cells {
		if off >= len(b) {
			return nil, fmt.Errorf("truncated before result %d of %d", i, n)
		}
		tag := b[off]
		off++
		res := fleet.CellResult{Cell: cell}
		var label string
		switch tag {
		case 0:
			rec, m, err := store.DecodeCellFrame(b[off:])
			if err != nil {
				return nil, fmt.Errorf("result %d: %w", i, err)
			}
			off += m
			label, res.Series, res.Workload = rec.Label, rec.Series, rec.Workload
		case 1:
			var msg string
			var err error
			if label, off, err = readWireString(b, off); err != nil {
				return nil, fmt.Errorf("result %d label: %w", i, err)
			}
			if msg, off, err = readWireString(b, off); err != nil {
				return nil, fmt.Errorf("result %d error: %w", i, err)
			}
			res.Err = errors.New(msg)
		default:
			return nil, fmt.Errorf("result %d has tag %d, want 0 (frame) or 1 (error)", i, tag)
		}
		if want := cell.Label(); label != want {
			return nil, fmt.Errorf("result %d is cell %s, want %s", i, label, want)
		}
		results[i] = res
	}
	if off != len(b) {
		return nil, fmt.Errorf("%d trailing bytes after %d results", len(b)-off, n)
	}
	return results, nil
}

func readWireString(b []byte, off int) (string, int, error) {
	n, k := binary.Uvarint(b[off:])
	if k <= 0 {
		return "", 0, fmt.Errorf("malformed length at offset %d", off)
	}
	off += k
	// Compare in uint64 space: int(n) of a length >= 2^63 is negative.
	if n > uint64(len(b)-off) {
		return "", 0, fmt.Errorf("string of %d bytes at offset %d exceeds the body", n, off)
	}
	return string(b[off : off+int(n)]), off + int(n), nil
}

// WorkerServer is the worker-process side of the HTTP transport: it
// compiles incoming campaigns, executes assigned cells into
// shard-stamped stores under Dir, and serves the resulting shard data
// back to the coordinator.
type WorkerServer struct {
	dir string

	mu   sync.Mutex
	runs map[string]*workerCampaign
}

type workerCampaign struct {
	spec fleet.CampaignSpec
	key  string
	st   *store.Store
	run  *store.Run
}

// NewWorkerServer returns a worker serving shard executions that
// persist under dir.
func NewWorkerServer(dir string) *WorkerServer {
	return &WorkerServer{dir: dir, runs: make(map[string]*workerCampaign)}
}

// Handler returns the worker's HTTP API.
func (s *WorkerServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /v1/health", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, "{\"status\":\"ok\"}\n")
	})
	mux.HandleFunc("POST /v1/execute", s.handleExecute)
	mux.HandleFunc("GET /v1/shard", s.handleShard)
	mux.HandleFunc("POST /v1/close", s.handleClose)
	return mux
}

// Close releases every cached run handle — the worker half of a
// graceful shutdown, after the HTTP server has drained.
func (s *WorkerServer) Close() error {
	s.mu.Lock()
	runs := s.runs
	s.runs = make(map[string]*workerCampaign)
	s.mu.Unlock()
	var first error
	for _, wc := range runs {
		if err := wc.run.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// maxRequestBytes caps POST bodies on worker and campaignd handlers:
// generous for a spec document plus a cell-label batch, far below
// anything that could pin the process's memory.
const maxRequestBytes = 16 << 20

// ErrorBody is the JSON error envelope every worker and campaignd
// endpoint answers failures with.
type ErrorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// WriteHTTPError writes the uniform JSON error envelope.
func WriteHTTPError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorBody{Error: err.Error(), Status: status})
}

// errorMessage extracts the envelope's message from a response body,
// falling back to the raw bytes for non-envelope (garbage) bodies.
func errorMessage(b []byte) string {
	var eb ErrorBody
	if json.Unmarshal(b, &eb) == nil && eb.Error != "" {
		return eb.Error
	}
	return string(bytes.TrimSpace(b))
}

// campaignFor returns (creating on first use) the worker's state for
// one run: the compiled spec and the shard-stamped store run. The
// returned status distinguishes protocol refusals (400 — binding
// conflicts, spec mismatches; fatal at the coordinator) from store
// I/O trouble (500 — transient, the coordinator retries elsewhere).
func (s *WorkerServer) campaignFor(req executeRequest) (*workerCampaign, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if wc, ok := s.runs[req.RunID]; ok {
		// Re-verify on every use, not only first creation: a run ID
		// reused for a different campaign must never execute cells
		// under the cached spec and persist them into the other
		// campaign's shard store.
		if req.SpecKey != "" && req.SpecKey != wc.key {
			return nil, http.StatusBadRequest, fmt.Errorf("shard: run %q is already bound to spec key %.12s, request carries %.12s — one run id cannot serve two campaigns", req.RunID, wc.key, req.SpecKey)
		}
		return wc, http.StatusOK, nil
	}
	doc, err := expspec.Decode(req.SpecDoc)
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("shard: worker decoding spec: %w", err)
	}
	plan, err := expspec.Compile(doc)
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("shard: worker compiling spec: %w", err)
	}
	if plan.Campaign == nil {
		return nil, http.StatusBadRequest, fmt.Errorf("shard: spec document has no campaign section")
	}
	spec := plan.Campaign.Spec
	key, err := store.SpecKey(spec)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if req.SpecKey != "" && key != req.SpecKey {
		return nil, http.StatusBadRequest, fmt.Errorf("shard: coordinator sent spec key %.12s but the document compiles to %.12s — mismatched binaries must not share a campaign", req.SpecKey, key)
	}
	st, err := store.Open(s.dir)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	meta := metaFromWire(req.Meta)
	meta.Shard = &store.ShardStamp{Index: req.Index, Count: req.Count}
	var run *store.Run
	if _, merr := st.Manifest(req.RunID); merr == nil {
		// The run survived a worker restart: resume the persisted
		// shard (SpecKey re-verified by Resume) instead of refusing
		// the campaign. Already-persisted cells restore through the
		// sink, so a readmitted worker re-executes none of them.
		run, err = st.Resume(req.RunID, spec)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		if got := run.Manifest().Shard; got == nil || *got != *meta.Shard {
			run.Close()
			return nil, http.StatusBadRequest, fmt.Errorf("shard: run %q on disk carries stamp %v but the request assigns shard %d/%d — refusing to mix shard assignments", req.RunID, got, req.Index, req.Count)
		}
	} else {
		run, err = st.CreateWithMeta(req.RunID, spec, meta)
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
	}
	wc := &workerCampaign{spec: spec, key: key, st: st, run: run}
	s.runs[req.RunID] = wc
	return wc, http.StatusOK, nil
}

func (s *WorkerServer) handleExecute(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	var req executeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		WriteHTTPError(w, status, fmt.Errorf("shard: decoding execute request: %w", err))
		return
	}
	wc, status, err := s.campaignFor(req)
	if err != nil {
		WriteHTTPError(w, status, err)
		return
	}
	spec := wc.spec
	spec.Sink = wc.run
	cells, err := resolveCells(spec, req.Cells)
	if err != nil {
		WriteHTTPError(w, http.StatusBadRequest, err)
		return
	}
	results, err := fleet.RunCells(spec, cells)
	if err != nil {
		WriteHTTPError(w, http.StatusInternalServerError, err)
		return
	}
	b, err := appendExecuteResponse(nil, results)
	if err != nil {
		WriteHTTPError(w, http.StatusInternalServerError, err)
		return
	}
	writeFrames(w, b)
}

// writeFrames answers with a frames body and its Content-Length, which
// lets the client read the body into one allocation.
func writeFrames(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", framesMediaType)
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.Write(b)
}

func (s *WorkerServer) handleShard(w http.ResponseWriter, r *http.Request) {
	runID := r.URL.Query().Get("run")
	s.mu.Lock()
	wc, ok := s.runs[runID]
	s.mu.Unlock()
	var st *store.Store
	if ok {
		st = wc.st
	} else {
		// Not in memory does not mean not persisted: a worker process
		// that restarted mid-campaign still holds its shard on disk,
		// and 404ing here would silently exclude those cells from the
		// merge. Fall back to the store before claiming ignorance.
		if !store.ValidRunID(runID) {
			WriteHTTPError(w, http.StatusNotFound, fmt.Errorf("shard: worker holds no run %q", runID))
			return
		}
		var err error
		if st, err = store.Open(s.dir); err != nil {
			WriteHTTPError(w, http.StatusInternalServerError, err)
			return
		}
	}
	d, err := store.LoadShard(st, runID)
	if err != nil {
		if !ok {
			// Nothing in memory and nothing loadable on disk: this
			// worker genuinely never persisted the run.
			WriteHTTPError(w, http.StatusNotFound, fmt.Errorf("shard: worker holds no run %q", runID))
			return
		}
		WriteHTTPError(w, http.StatusInternalServerError, err)
		return
	}
	b, err := d.Encode()
	if err != nil {
		WriteHTTPError(w, http.StatusInternalServerError, err)
		return
	}
	writeFrames(w, b)
}

func (s *WorkerServer) handleClose(w http.ResponseWriter, r *http.Request) {
	runID := r.URL.Query().Get("run")
	s.mu.Lock()
	wc, ok := s.runs[runID]
	delete(s.runs, runID)
	s.mu.Unlock()
	if ok {
		wc.run.Close()
	}
	fmt.Fprintln(w, "ok")
}

// HTTPWorker drives one remote worker process. The coordinator
// retries a call on the same worker (with backoff), then on the next
// ring worker, when it fails at the transport level — connection
// refused, a per-attempt deadline, a torn response, a 5xx — and
// aborts the campaign on 4xx protocol refusals (see Classify).
type HTTPWorker struct {
	// URL is the worker's base URL (e.g. "http://127.0.0.1:7071").
	URL string
	// Client issues the requests; nil means http.DefaultClient.
	// Client.Timeout bounds a whole call including retries at the
	// transport; prefer AttemptTimeout for per-try bounds.
	Client *http.Client
	// AttemptTimeout bounds each individual request via its context —
	// distinct from Client.Timeout, so one stalled attempt is cut
	// short and retried instead of consuming the whole call budget.
	// Zero means no per-attempt deadline.
	AttemptTimeout time.Duration

	rc           RunContext
	index, count int
}

// StatusError is a non-2xx worker response: the status code drives
// the transient/fatal classification, the message is the server's
// error-envelope text.
type StatusError struct {
	// URL is the worker's base URL.
	URL string
	// Code is the HTTP status code.
	Code int
	// Msg is the decoded error-envelope message (or the raw body).
	Msg string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("shard: worker %s answered %d: %s", e.URL, e.Code, e.Msg)
}

func (w *HTTPWorker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

// Begin implements Worker. The campaign must carry its canonical spec
// document — that is what crosses the wire.
func (w *HTTPWorker) Begin(rc RunContext, index, count int) error {
	if len(rc.SpecDoc) == 0 {
		return fmt.Errorf("shard: HTTP worker %s needs the campaign's spec document", w.URL)
	}
	w.rc = rc
	w.index, w.count = index, count
	return nil
}

// Execute implements Worker: ship labels out, rebuild full results
// from the returned frames.
func (w *HTTPWorker) Execute(cells []fleet.Cell) ([]fleet.CellResult, error) {
	labels := make([]string, len(cells))
	for i, c := range cells {
		labels[i] = c.Label()
	}
	body, err := json.Marshal(executeRequest{
		RunID:   w.rc.RunID,
		SpecKey: w.rc.SpecKey,
		SpecDoc: json.RawMessage(w.rc.SpecDoc),
		Index:   w.index,
		Count:   w.count,
		Meta:    metaToWire(w.rc.Meta),
		Cells:   labels,
	})
	if err != nil {
		return nil, fmt.Errorf("shard: encoding execute request: %w", err)
	}
	b, err := w.frames(http.MethodPost, "/v1/execute", body)
	if err != nil {
		return nil, err
	}
	results, err := decodeExecuteResponse(b, cells)
	if err != nil {
		return nil, fmt.Errorf("shard: decoding worker %s execute response: %w", w.URL, err)
	}
	for i := range results {
		if results[i].Err == nil {
			results[i].Summary = fleet.SummarizeStored(w.rc.Spec.Summarize, results[i].Series)
		}
	}
	return results, nil
}

// Shard implements Worker: fetch the worker's persisted shard store.
func (w *HTTPWorker) Shard() (store.ShardData, bool, error) {
	b, err := w.frames(http.MethodGet, "/v1/shard?run="+w.rc.RunID, nil)
	var se *StatusError
	if errors.As(err, &se) && se.Code == http.StatusNotFound {
		// The worker never persisted anything for this run — the
		// server checks its disk store as well as its memory, so even
		// a restarted worker only 404s when it held no cells (every
		// one of its shards was reassigned before it started). The
		// coordinator's coverage check re-verifies that no cell is
		// lost to this answer.
		return store.ShardData{}, false, nil
	}
	if err != nil {
		return store.ShardData{}, false, err
	}
	d, err := store.DecodeShardData(b)
	if err != nil {
		return store.ShardData{}, false, err
	}
	return d, true, nil
}

// Health implements HealthChecker: the breaker's half-open probe. A
// nil return means the worker process is up and answering.
func (w *HTTPWorker) Health() error {
	_, _, err := w.call(http.MethodGet, "/v1/health", nil)
	return err
}

// Close implements Worker: release the remote store handle. A dead
// worker's close failing is not an error worth failing a campaign
// over — the merge already has the data.
func (w *HTTPWorker) Close() error {
	if w.rc.RunID == "" {
		return nil
	}
	_, _, _ = w.call(http.MethodPost, "/v1/close?run="+w.rc.RunID, nil)
	return nil
}

// wireSkewError is a 200 answer to a cell-carrying call in a media
// type other than framesMediaType: the worker speaks another wire
// format. Every retry would fail the same way, and falling back to
// local execution would hide a deployment error, so Classify makes it
// fatal.
type wireSkewError struct {
	url, path, contentType string
}

func (e *wireSkewError) Error() string {
	return fmt.Sprintf("shard: worker %s answered %s with Content-Type %q, want %s — coordinator and worker speak different wire formats",
		e.url, e.path, e.contentType, framesMediaType)
}

// frames is call for the cell-carrying endpoints: it also requires the
// 200 answer to be in framesMediaType.
func (w *HTTPWorker) frames(method, path string, body []byte) ([]byte, error) {
	ct, b, err := w.call(method, path, body)
	if err != nil {
		return nil, err
	}
	if mt, _, err := mime.ParseMediaType(ct); err != nil || mt != framesMediaType {
		return nil, &wireSkewError{url: w.URL, path: path, contentType: ct}
	}
	return b, nil
}

// call issues one request (a JSON body when body is non-nil), bounded
// by AttemptTimeout when set, and returns the Content-Type and body of
// a 200 answer. Any failure — transport, deadline, torn body, non-2xx —
// is a worker-level error the coordinator's retry machinery
// classifies: StatusError carries the code for the transient/fatal
// split, everything else is transient.
func (w *HTTPWorker) call(method, path string, body []byte) (string, []byte, error) {
	ctx := context.Background()
	if w.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, w.AttemptTimeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.URL+path, rd)
	if err != nil {
		return "", nil, fmt.Errorf("shard: calling worker %s: %w", w.URL, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.client().Do(req)
	if err != nil {
		return "", nil, fmt.Errorf("shard: calling worker %s: %w", w.URL, err)
	}
	defer resp.Body.Close()
	b, err := readBody(resp)
	if err != nil {
		return "", nil, fmt.Errorf("shard: reading worker %s response: %w", w.URL, err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", nil, &StatusError{URL: w.URL, Code: resp.StatusCode, Msg: errorMessage(b)}
	}
	return resp.Header.Get("Content-Type"), b, nil
}

// maxBodyPrealloc caps the allocation a response's Content-Length may
// size before any byte of the body has arrived. A worker's frames
// answer for one batch or one shard stays far below it.
const maxBodyPrealloc = 64 << 20

// readBody reads a response body. A body of declared length up to
// maxBodyPrealloc is read into one allocation of exactly that length;
// one that ends early fails like any torn read. A body of unknown
// length — the torn-response fault's among them — or of a larger
// declared length grows as its bytes arrive, so a lying header cannot
// size the allocation.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxBodyPrealloc {
		b := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, b); err != nil {
			return nil, err
		}
		return b, nil
	}
	return io.ReadAll(resp.Body)
}
