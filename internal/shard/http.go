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
//	                    (writeExecuteResponse)
//	GET  /v1/shard    — the worker's persisted shard, as
//	                    store.ShardData.Encode bytes (Run never asks:
//	                    it merges the execute answers)
//	POST /v1/close    — release a campaign's store handle
//	GET  /v1/health   — heartbeat (the breaker's half-open probe)
//	GET  /healthz     — liveness
//
// Both frames answers carry a Content-Length. An execute answer
// crosses the wire a frame at a time: the worker sizes it in one pass,
// then writes each result through one buffer sized for the largest, and
// the client decodes each frame as it arrives, from one reused buffer
// that only arrived or declared bytes size (readExecuteResponse). The
// shard answer is encoded whole and read into one allocation of its
// length (capped by maxBodyPrealloc). A 200 answer from execute or shard
// in any other media type comes from a worker speaking another wire
// format; the client reads it to its end and refuses it as a fatal
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
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"strconv"
	"sync"
	"time"

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
	Meta    store.RunMeta   `json:"meta"`
	Cells   []string        `json:"cells"`
}

// framesMediaType is the Content-Type of the answers that carry
// cells: execute results and store.ShardData.
const framesMediaType = "application/vnd.cloudvar.frames"

// writeExecuteResponse answers POST /v1/execute: one result per
// requested cell, in request order. Per-cell errors travel as strings —
// they are campaign facts, not transport failures.
//
//	response := uvarint(count) result{count}
//	result   := byte(0) frame                   (store.AppendCellFrame)
//	          | byte(1) str(label) str(error)
//	str      := uvarint(len) bytes
//
// A first pass sizes the answer with store.CellFrameLen, so that it
// carries its Content-Length, and answers a 500 envelope instead, before
// anything is written, for a record AppendCellFrame would refuse. The
// results then go out one at a time through one buffer sized for the
// largest.
func writeExecuteResponse(w http.ResponseWriter, results []fleet.CellResult) {
	recs := make([]store.CellRecord, len(results))
	size, largest := uvarintLen(uint64(len(results))), 0
	for i, res := range results {
		n := 1
		if res.Err != nil {
			n += wireStringLen(res.Cell.Label()) + wireStringLen(res.Err.Error())
		} else {
			rec, err := store.NewCellRecord(res)
			if err != nil {
				WriteHTTPError(w, http.StatusInternalServerError, err)
				return
			}
			frame := store.CellFrameLen(rec)
			if frame == 0 {
				// A record without a frame: AppendCellFrame names why.
				_, err := store.AppendCellFrame(nil, rec)
				WriteHTTPError(w, http.StatusInternalServerError, err)
				return
			}
			recs[i] = rec
			n += frame
		}
		size += n
		largest = max(largest, n)
	}
	w.Header().Set("Content-Type", framesMediaType)
	w.Header().Set("Content-Length", strconv.Itoa(size))
	buf := make([]byte, 0, binary.MaxVarintLen64+largest+store.CellFrameHeadroom)
	buf = binary.AppendUvarint(buf, uint64(len(results)))
	for i, res := range results {
		if res.Err != nil {
			buf = appendWireString(appendWireString(append(buf, 1), res.Cell.Label()), res.Err.Error())
		} else {
			var err error
			if buf, err = store.AppendCellFrame(append(buf, 0), recs[i]); err != nil {
				return // unreachable: the sizing pass refused what AppendCellFrame refuses
			}
		}
		// A failed write leaves the answer short of its length: the
		// coordinator reads it torn and retries.
		if _, err := w.Write(buf); err != nil {
			return
		}
		buf = buf[:0]
	}
}

func appendWireString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func wireStringLen(s string) int {
	return uvarintLen(uint64(len(s))) + len(s)
}

func uvarintLen(v uint64) int {
	var n [binary.MaxVarintLen64]byte
	return binary.PutUvarint(n[:], v)
}

// readExecuteResponse decodes the answer to an execute request for
// cells as it arrives from body: exactly one result per cell, in order,
// each naming its cell, and nothing after the last. Summaries are left
// to the caller, which knows the campaign's summary mode.
//
// declared is the body's declared length, -1 when none was declared.
// Each frame and string is read into one buffer the answer reuses, and
// only bytes that arrived size it: a length that claims more than the
// declared body has left is refused before anything is allocated, a
// declared length of up to maxBodyPrealloc sizes the buffer for the
// frame it vouches for, with a sixteenth to spare for the next, and
// otherwise the buffer grows only as bytes arrive, at most doubling.
func readExecuteResponse(body io.Reader, declared int64, cells []fleet.Cell) ([]fleet.CellResult, error) {
	a := &answerReader{br: bufio.NewReader(body), size: declared}
	n, err := a.uvarint()
	if err != nil {
		return nil, fmt.Errorf("result count: %w", err)
	}
	if n != uint64(len(cells)) {
		return nil, fmt.Errorf("%d results for %d cells", n, len(cells))
	}
	results := make([]fleet.CellResult, len(cells))
	for i, cell := range cells {
		tag, err := a.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("truncated before result %d of %d: %w", i, n, torn(err))
		}
		res := fleet.CellResult{Cell: cell}
		var label string
		switch tag {
		case 0:
			rec, err := a.frame()
			if err != nil {
				return nil, fmt.Errorf("result %d: %w", i, err)
			}
			label, res.Series, res.Workload = rec.Label, rec.Series, rec.Workload
		case 1:
			var msg string
			if label, err = a.str(); err != nil {
				return nil, fmt.Errorf("result %d label: %w", i, err)
			}
			if msg, err = a.str(); err != nil {
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
	if _, err := a.ReadByte(); err != io.EOF {
		if err == nil {
			return nil, fmt.Errorf("trailing bytes after %d results", n)
		}
		return nil, fmt.Errorf("after %d results: %w", n, err)
	}
	return results, nil
}

// answerReader is the read side of one execute answer.
type answerReader struct {
	br *bufio.Reader
	// size is the answer's declared length (-1 when undeclared), off
	// the bytes read so far.
	size, off int64
	// buf holds the frame or string being read, and hdr the length
	// varint of a frame, with one byte past the widest to tell an
	// overflowing varint from one the answer cuts short.
	buf []byte
	hdr [binary.MaxVarintLen64 + 1]byte
}

func (a *answerReader) ReadByte() (byte, error) {
	c, err := a.br.ReadByte()
	if err == nil {
		a.off++
	}
	return c, err
}

func (a *answerReader) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(a)
	return v, torn(err)
}

// str reads a str.
func (a *answerReader) str() (string, error) {
	n, err := a.uvarint()
	if err != nil {
		return "", err
	}
	if err := a.read(nil, n); err != nil {
		return "", err
	}
	return string(a.buf), nil
}

// frame reads a frame into buf and decodes it. Its records alias
// nothing in buf.
func (a *answerReader) frame() (store.CellRecord, error) {
	// The length varint is kept: DecodeCellFrame reads the frame whole.
	k := 0
	for k == 0 || a.hdr[k-1] >= 0x80 && k < len(a.hdr) {
		c, err := a.ReadByte()
		if err != nil {
			return store.CellRecord{}, torn(err)
		}
		a.hdr[k] = c
		k++
	}
	// The CRC's 4 bytes and the payload follow. A length no frame can
	// have, one that overflows or runs to 2^64, is refused as
	// DecodeCellFrame refuses it.
	n, m := binary.Uvarint(a.hdr[:k])
	if m <= 0 || n > math.MaxUint64-4 {
		_, _, err := store.DecodeCellFrame(a.hdr[:k])
		return store.CellRecord{}, err
	}
	if err := a.read(a.hdr[:k], n+4); err != nil {
		return store.CellRecord{}, err
	}
	rec, _, err := store.DecodeCellFrame(a.buf)
	return rec, err
}

// read fills buf with prefix and the answer's next n bytes.
func (a *answerReader) read(prefix []byte, n uint64) error {
	if a.size >= 0 && n > uint64(max(a.size-a.off, 0)) {
		return fmt.Errorf("%d bytes claimed at offset %d of a %d-byte answer", n, a.off, a.size)
	}
	end := uint64(len(prefix)) + n
	buf := a.buf[:0]
	if end > uint64(cap(buf)) {
		switch {
		case a.size >= 0 && end <= maxBodyPrealloc:
			// The declared length vouches for the bytes.
			buf = make([]byte, 0, end+end/16)
		case cap(buf) < bytes.MinRead:
			buf = make([]byte, 0, bytes.MinRead)
		}
	}
	buf = append(buf, prefix...)
	for uint64(len(buf)) < end {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(end, 2*uint64(cap(buf)))), buf...)
		}
		m, err := io.ReadFull(a.br, buf[len(buf):min(end, uint64(cap(buf)))])
		buf = buf[:len(buf)+m]
		a.off += int64(m)
		if err != nil {
			a.buf = buf
			return torn(err)
		}
	}
	a.buf = buf
	return nil
}

// torn reports an answer that ends early as io.ErrUnexpectedEOF, also
// where a read meets its end at once.
func torn(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// WorkerServer is the worker-process side of the HTTP transport: it
// compiles incoming campaigns, binds each run to the spec key and
// shard stamp of its first request, and executes assigned cells
// through an InProcWorker over Dir — whose shard-stamped store is the
// worker's resume state — answering each cell's frame to the
// coordinator.
type WorkerServer struct {
	dir string

	mu   sync.Mutex
	runs map[string]*workerCampaign
}

// workerCampaign is one run on a WorkerServer: the binding its first
// request fixed and the in-process worker executing it.
type workerCampaign struct {
	key    string
	stamp  store.ShardStamp
	worker InProcWorker
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
		if err := wc.worker.Close(); err != nil && first == nil {
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
// one run. The returned status distinguishes protocol refusals (400 —
// malformed run IDs or stamps, binding conflicts, spec mismatches, a
// run on disk the worker may not resume; fatal at the coordinator)
// from store I/O trouble (500 — transient, the coordinator retries
// elsewhere).
func (s *WorkerServer) campaignFor(req executeRequest) (*workerCampaign, int, error) {
	// No store accepts these, so no retry could ever succeed.
	if !store.ValidRunID(req.RunID) {
		return nil, http.StatusBadRequest, fmt.Errorf("shard: run id %q is not a valid store run id", req.RunID)
	}
	stamp := store.ShardStamp{Index: req.Index, Count: req.Count}
	if err := stamp.Validate(); err != nil {
		return nil, http.StatusBadRequest, err
	}
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
		// Two coordinator lanes pointed at one worker process would
		// otherwise persist both shards into one store.
		if wc.stamp != stamp {
			return nil, http.StatusBadRequest, fmt.Errorf("shard: run %q is bound to shard %d/%d on this worker but the request assigns shard %d/%d — two coordinator lanes point at one worker process", req.RunID, wc.stamp.Index, wc.stamp.Count, req.Index, req.Count)
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
	// A run that survived a worker restart resumes: its persisted
	// cells restore through the sink, so a readmitted worker
	// re-executes none of them.
	wc := &workerCampaign{key: key, stamp: stamp, worker: InProcWorker{Dir: s.dir}}
	rc := RunContext{Spec: spec, SpecKey: key, RunID: req.RunID, Meta: req.Meta}
	if err := wc.worker.Begin(rc, req.Index, req.Count); err != nil {
		var be *bindingError
		if errors.As(err, &be) {
			return nil, http.StatusBadRequest, err
		}
		return nil, http.StatusInternalServerError, err
	}
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
	cells, err := resolveCells(wc.worker.spec, req.Cells)
	if err != nil {
		WriteHTTPError(w, http.StatusBadRequest, err)
		return
	}
	results, err := wc.worker.Execute(cells)
	if err != nil {
		WriteHTTPError(w, http.StatusInternalServerError, err)
		return
	}
	writeExecuteResponse(w, results)
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
	_, bound := s.runs[runID]
	s.mu.Unlock()
	// The shard is read from disk whether or not the run is bound in
	// memory: a worker process that restarted, or a run already
	// closed, still holds its shard there.
	if !store.ValidRunID(runID) {
		WriteHTTPError(w, http.StatusNotFound, fmt.Errorf("shard: worker holds no run %q", runID))
		return
	}
	st, err := store.Open(s.dir)
	if err != nil {
		WriteHTTPError(w, http.StatusInternalServerError, err)
		return
	}
	d, err := store.LoadShard(st, runID)
	if err != nil {
		if !bound {
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
		wc.worker.Close()
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
// from the frames as they arrive.
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
		Meta:    w.rc.Meta,
		Cells:   labels,
	})
	if err != nil {
		return nil, fmt.Errorf("shard: encoding execute request: %w", err)
	}
	var results []fleet.CellResult
	err = w.roundTrip(http.MethodPost, "/v1/execute", body, func(resp *http.Response) error {
		if err := w.framesOnly(resp, "/v1/execute"); err != nil {
			return err
		}
		var err error
		if results, err = readExecuteResponse(resp.Body, resp.ContentLength, cells); err != nil {
			return fmt.Errorf("shard: decoding worker %s execute response: %w", w.URL, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
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
	path := "/v1/shard?run=" + w.rc.RunID
	var b []byte
	err := w.roundTrip(http.MethodGet, path, nil, func(resp *http.Response) (err error) {
		if err := w.framesOnly(resp, path); err != nil {
			return err
		}
		if b, err = readBody(resp); err != nil {
			return fmt.Errorf("shard: reading worker %s response: %w", w.URL, err)
		}
		return nil
	})
	var se *StatusError
	if errors.As(err, &se) && se.Code == http.StatusNotFound {
		// The worker never persisted anything for this run — the
		// server checks its disk store as well as its memory, so even
		// a restarted worker only 404s when it held no cells (every
		// one of its shards was reassigned before it started).
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
	return w.roundTrip(http.MethodGet, "/v1/health", nil, w.discard)
}

// Close implements Worker: release the remote store handle. A dead
// worker's close failing is not an error worth failing a campaign
// over — the merge already has the data.
func (w *HTTPWorker) Close() error {
	if w.rc.RunID == "" {
		return nil
	}
	_ = w.roundTrip(http.MethodPost, "/v1/close?run="+w.rc.RunID, nil, w.discard)
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

// framesOnly refuses a 200 answer to a cell-carrying call that is not
// in framesMediaType, as wire skew, once it has read the answer to its
// end: a torn answer stays a transient transport failure.
func (w *HTTPWorker) framesOnly(resp *http.Response, path string) error {
	ct := resp.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil && mt == framesMediaType {
		return nil
	}
	if err := w.discard(resp); err != nil {
		return err
	}
	return &wireSkewError{url: w.URL, path: path, contentType: ct}
}

// discard reads an answer to its end.
func (w *HTTPWorker) discard(resp *http.Response) error {
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("shard: reading worker %s response: %w", w.URL, err)
	}
	return nil
}

// roundTrip issues one request (a JSON body when body is non-nil),
// bounded by AttemptTimeout when set, and hands a 200 answer to read
// before it closes the body. Any failure — transport, deadline, torn
// body, non-2xx — is a worker-level error the coordinator's retry
// machinery classifies: StatusError carries the code for the
// transient/fatal split, wireSkewError is fatal, everything else is
// transient.
func (w *HTTPWorker) roundTrip(method, path string, body []byte, read func(*http.Response) error) error {
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
		return fmt.Errorf("shard: calling worker %s: %w", w.URL, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.client().Do(req)
	if err != nil {
		return fmt.Errorf("shard: calling worker %s: %w", w.URL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, err := readBody(resp)
		if err != nil {
			return fmt.Errorf("shard: reading worker %s response: %w", w.URL, err)
		}
		return &StatusError{URL: w.URL, Code: resp.StatusCode, Msg: errorMessage(b)}
	}
	return read(resp)
}

// maxBodyPrealloc caps the allocation a response's Content-Length may
// size before any byte of the body has arrived. A worker's shard answer
// and any one frame of an execute answer stay far below it.
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
