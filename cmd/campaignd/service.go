package main

// The coordinator service: an HTTP API over submit → schedule →
// shard → merge → serve. Runs execute one at a time (FIFO) — a
// campaign already saturates its workers; queueing keeps two
// campaigns from interleaving on the same fleet — and every completed
// run is a merged, byte-identical store run that the manifest and
// drift endpoints serve straight from disk.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"cloudvar/internal/core"
	"cloudvar/internal/expspec"
	"cloudvar/internal/faults"
	"cloudvar/internal/fleet"
	"cloudvar/internal/longitudinal"
	"cloudvar/internal/shard"
	"cloudvar/internal/store"
)

// run statuses, in lifecycle order.
const (
	statusQueued  = "queued"
	statusRunning = "running"
	statusDone    = "done"
	statusFailed  = "failed"
)

// runState is one submitted campaign's lifecycle record.
type runState struct {
	ID       string `json:"id"`
	Status   string `json:"status"`
	SpecHash string `json:"specHash"`
	Shards   int    `json:"shards"`
	Error    string `json:"error,omitempty"`
	// Cached marks a run served from the store without re-execution:
	// the submitted spec's run already existed with a matching key.
	Cached bool `json:"cached,omitempty"`

	plan    expspec.Plan
	specKey string
	workers []string
}

// service is the coordinator: it owns the merged results store, the
// run registry and the FIFO scheduler.
type service struct {
	dir     string
	st      *store.Store
	workers []string // default worker URLs for specs without sharding.workers

	mu    sync.Mutex
	runs  map[string]*runState
	order []string

	queue chan *runState
	quit  chan struct{}
	done  sync.WaitGroup
}

// newService opens (or creates) the merged-results store under dir.
// workers are the default worker URLs applied to specs whose sharding
// section names none.
func newService(dir string, workers []string) (*service, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return &service{
		dir:     dir,
		st:      st,
		workers: workers,
		runs:    make(map[string]*runState),
		queue:   make(chan *runState, 64),
		quit:    make(chan struct{}),
	}, nil
}

// start launches the scheduler loop.
func (s *service) start() {
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		for {
			select {
			case <-s.quit:
				return
			case rs := <-s.queue:
				s.execute(rs)
			}
		}
	}()
}

// stop shuts the scheduler down: the in-flight run finishes (its
// merge commits or it fails — never a half-merged store), then any
// still-queued runs are failed with a shutdown error so clients
// polling their status see a terminal state instead of "queued"
// forever.
func (s *service) stop() {
	close(s.quit)
	s.done.Wait()
	for {
		select {
		case rs := <-s.queue:
			s.setStatus(rs, statusFailed, "campaignd: service shut down before this run started")
		default:
			return
		}
	}
}

// handler returns the coordinator's HTTP API.
func (s *service) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs", s.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/runs/{id}/manifest", s.handleManifest)
	mux.HandleFunc("GET /v1/runs/{id}/drift", s.handleDrift)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// handleSubmit accepts an experiment-spec document, names its run and
// queues it. Submitting a spec whose run already exists with the same
// spec key is idempotent — the cached run is served; a same-ID run
// with a different key is a conflict, never an overwrite.
func (s *service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		shard.WriteHTTPError(w, status, err)
		return
	}
	doc, err := expspec.Decode(body)
	if err != nil {
		shard.WriteHTTPError(w, http.StatusBadRequest, err)
		return
	}
	plan, err := expspec.Compile(doc)
	if err != nil {
		shard.WriteHTTPError(w, http.StatusBadRequest, err)
		return
	}
	if plan.Campaign == nil {
		shard.WriteHTTPError(w, http.StatusBadRequest, fmt.Errorf("campaignd: spec has no campaign section"))
		return
	}
	specKey, err := store.SpecKey(plan.Campaign.Spec)
	if err != nil {
		shard.WriteHTTPError(w, http.StatusInternalServerError, err)
		return
	}
	// The run's name: the spec's own store.runId when it declares one,
	// else derived from the document's content address — same document,
	// same run.
	runID := "r-" + plan.Hash[:12]
	if plan.Store != nil && plan.Store.RunID != "" {
		runID = plan.Store.RunID
	}
	workers := s.workers
	shards := 1
	declared := 0 // shard count the document set explicitly, sans workers
	if plan.Sharding != nil {
		shards = plan.Sharding.Shards
		if len(plan.Sharding.Workers) > 0 {
			workers = plan.Sharding.Workers
		}
	}
	if doc.Sharding != nil && len(doc.Sharding.Workers) == 0 {
		declared = doc.Sharding.Shards
	}
	if len(workers) > 0 {
		// Each worker owns one shard. A spec that explicitly declared a
		// different partition width must not be silently re-partitioned
		// to the service's fleet — mirror expspec's own
		// shards-vs-workers agreement rule and refuse.
		if declared > 0 && declared != len(workers) {
			shard.WriteHTTPError(w, http.StatusConflict, fmt.Errorf("campaignd: spec declares sharding.shards=%d but the service runs %d workers (each worker owns one shard; align them or name the workers in the spec)", declared, len(workers)))
			return
		}
		shards = len(workers)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if rs, ok := s.runs[runID]; ok {
		if rs.SpecHash != plan.Hash {
			shard.WriteHTTPError(w, http.StatusConflict, fmt.Errorf("campaignd: run %s already submitted from a different spec (hash %.12s vs %.12s)", runID, rs.SpecHash, plan.Hash))
			return
		}
		writeJSON(w, rs)
		return
	}
	rs := &runState{
		ID:       runID,
		SpecHash: plan.Hash,
		Shards:   shards,
		plan:     plan,
		specKey:  specKey,
		workers:  workers,
	}
	// A run already in the store is served cached — if it is the same
	// campaign. SpecKey is the arbiter, exactly as in resume.
	if m, err := s.st.Manifest(runID); err == nil {
		if m.SpecKey != specKey {
			shard.WriteHTTPError(w, http.StatusConflict, fmt.Errorf("campaignd: store already holds run %s for a different campaign (spec key %.12s vs %.12s)", runID, m.SpecKey, specKey))
			return
		}
		rs.Status = statusDone
		rs.Cached = true
		s.register(rs)
		writeJSON(w, rs)
		return
	}
	rs.Status = statusQueued
	select {
	case s.queue <- rs:
	default:
		shard.WriteHTTPError(w, http.StatusServiceUnavailable, fmt.Errorf("campaignd: run queue is full"))
		return
	}
	s.register(rs)
	writeJSON(w, rs)
}

// register records a run; the caller holds s.mu.
func (s *service) register(rs *runState) {
	s.runs[rs.ID] = rs
	s.order = append(s.order, rs.ID)
}

func (s *service) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := struct {
		Runs []runState `json:"runs"`
	}{Runs: make([]runState, 0, len(s.order))}
	for _, id := range s.order {
		out.Runs = append(out.Runs, *s.runs[id])
	}
	writeJSON(w, out)
}

func (s *service) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	rs, ok := s.runs[r.PathValue("id")]
	var snap runState
	if ok {
		snap = *rs
	}
	s.mu.Unlock()
	if !ok {
		shard.WriteHTTPError(w, http.StatusNotFound, fmt.Errorf("campaignd: unknown run %q", r.PathValue("id")))
		return
	}
	writeJSON(w, snap)
}

// handleManifest serves the merged run's manifest bytes verbatim from
// the store — the byte-identity artifact itself.
func (s *service) handleManifest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !store.ValidRunID(id) {
		shard.WriteHTTPError(w, http.StatusBadRequest, fmt.Errorf("campaignd: %q is not a valid run id", id))
		return
	}
	b, err := os.ReadFile(filepath.Join(s.dir, "runs", id, "manifest.json"))
	if err != nil {
		shard.WriteHTTPError(w, http.StatusNotFound, fmt.Errorf("campaignd: no stored manifest for run %q", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// handleDrift renders the longitudinal drift report between a stored
// baseline run and this run. A malformed run ID is the client's error
// (400) and a run the store lacks is 404; a stored run that fails to
// load (a corrupt manifest or cells file) is the server's (500).
func (s *service) handleDrift(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	baseline := r.URL.Query().Get("baseline")
	if baseline == "" {
		shard.WriteHTTPError(w, http.StatusBadRequest, fmt.Errorf("campaignd: drift needs ?baseline=RUNID"))
		return
	}
	for _, runID := range []string{id, baseline} {
		if !store.ValidRunID(runID) {
			shard.WriteHTTPError(w, http.StatusBadRequest, fmt.Errorf("campaignd: %q is not a valid run id", runID))
			return
		}
	}
	runs, err := longitudinal.Load(s.st, baseline, id)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, fs.ErrNotExist) {
			status = http.StatusNotFound
		}
		shard.WriteHTTPError(w, status, err)
		return
	}
	report, err := longitudinal.Analyze(runs, longitudinal.Options{})
	if err != nil {
		shard.WriteHTTPError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "text/markdown")
	report.WriteMarkdown(w)
}

// setStatus transitions a run's lifecycle state.
func (s *service) setStatus(rs *runState, status, errMsg string) {
	s.mu.Lock()
	rs.Status = status
	rs.Error = errMsg
	s.mu.Unlock()
}

// execute runs one campaign: shard across the fleet, merge the shard
// stores into the service store, record precision. Worker failure is
// survived inside shard.Run (ring reassignment); only a campaign that
// no worker could finish fails here.
func (s *service) execute(rs *runState) {
	s.setStatus(rs, statusRunning, "")
	if err := s.runCampaign(rs); err != nil {
		s.setStatus(rs, statusFailed, err.Error())
		return
	}
	s.setStatus(rs, statusDone, "")
}

func (s *service) runCampaign(rs *runState) error {
	spec := rs.plan.Campaign.Spec
	prints, err := fleet.FingerprintProfiles(spec, core.FingerprintConfig{})
	if err != nil {
		return err
	}
	meta := store.RunMeta{
		Fingerprints:       prints,
		CreatedUnix:        time.Now().Unix(),
		ExperimentSpec:     rs.plan.Bytes,
		ExperimentSpecHash: rs.plan.Hash,
	}
	if rs.plan.Store != nil {
		meta.Encoding = rs.plan.Store.Encoding
	}

	// A faults: section compiles to one injector for the whole fleet —
	// in-process workers are wrapped worker-side, HTTP workers get a
	// fault-injecting transport. Either way the resilience layer below
	// (retry ring, breaker, local fallback) is what absorbs the faults;
	// the merged bytes must come out identical to a fault-free run.
	var inj *faults.Injector
	if fp := rs.plan.Faults; fp != nil {
		plan := faults.Plan{Name: fp.Plan, Params: fp.Params}
		inj, err = plan.Injector(fp.Seed, rs.Shards)
		if err != nil {
			return err
		}
	}

	// Build the fleet: HTTP workers when URLs are configured, else
	// in-process shards in scratch stores under the service directory.
	var workers []shard.Worker
	scratch := filepath.Join(s.dir, ".shards", rs.ID)
	if len(rs.workers) > 0 {
		for i, u := range rs.workers {
			w := &shard.HTTPWorker{URL: u, AttemptTimeout: 2 * time.Minute}
			if inj != nil {
				w.Client = &http.Client{Transport: inj.Transport(i, nil)}
			}
			workers = append(workers, w)
		}
	} else {
		for i := 0; i < rs.Shards; i++ {
			dir := filepath.Join(scratch, strconv.Itoa(i))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			var w shard.Worker = &shard.InProcWorker{Dir: dir}
			if inj != nil {
				w = shard.InjectFaults(w, inj.State(i))
			}
			workers = append(workers, w)
		}
		defer os.RemoveAll(scratch)
	}

	res, shards, err := shard.Run(shard.Campaign{
		Spec:     spec,
		SpecDoc:  rs.plan.Bytes,
		RunID:    rs.ID,
		Meta:     meta,
		Workers:  workers,
		Fallback: &shard.InProcWorker{},
	})
	if err != nil {
		return err
	}
	// StoredLabels is the completeness expectation: the merge refuses
	// if any successfully measured cell is in no shard store.
	merged, err := store.MergeShards(s.st, rs.ID, shards, res.StoredLabels())
	if err != nil {
		return err
	}
	defer merged.Close()
	return merged.RecordPrecision(res.Groups)
}
