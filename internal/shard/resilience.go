package shard

// Resilience layer for the distributed campaign: classified errors
// (transient vs fatal), capped exponential backoff with deterministic
// seeded jitter, a per-worker circuit breaker with half-open health
// probes, and local absorption of orphaned shards when the whole
// remote fleet is gone. None of it touches result bytes — faults and
// recovery may change how long a campaign takes and which worker
// computed a cell, never what the cell contains; the chaos suite
// pins that contract store-byte for store-byte.

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"cloudvar/internal/faults"
	"cloudvar/internal/fleet"
	"cloudvar/internal/simrand"
	"cloudvar/internal/store"
)

// HealthChecker is the optional worker capability the circuit breaker
// probes: a worker that reports healthy again after tripping its
// breaker is readmitted (half-open → closed). HTTPWorker implements
// it via GET /v1/health; workers without it stay dead once tripped.
type HealthChecker interface {
	Health() error
}

// ErrorClass buckets a worker failure for the retry machinery.
type ErrorClass int

const (
	// ClassTransient failures are infrastructure: retry on the same
	// worker with backoff, then move along the ring.
	ClassTransient ErrorClass = iota
	// ClassFatal failures are protocol: the request itself is wrong
	// (spec-key mismatch, run-ID binding conflict) and would fail
	// identically on every worker — abort the campaign instead of
	// grinding through the ring.
	ClassFatal
)

// Classify assigns a worker error to its retry class. 4xx worker
// responses — except 408 (timeout) and 429 (pressure) — are fatal, and
// so is a 200 answer in the wrong media type (wire skew between
// binaries); everything else (transport errors, deadlines, torn
// responses, 5xx, injected faults) is transient.
func Classify(err error) ErrorClass {
	var skew *wireSkewError
	if errors.As(err, &skew) {
		return ClassFatal
	}
	var se *StatusError
	if errors.As(err, &se) {
		if se.Code >= 400 && se.Code < 500 &&
			se.Code != http.StatusRequestTimeout && se.Code != http.StatusTooManyRequests {
			return ClassFatal
		}
	}
	return ClassTransient
}

// The retry policy every coordinator runs. A visit tries one worker
// up to maxAttempts times; retry k (k >= 1) sleeps
// min(baseDelay<<(k-1), maxDelay) scaled by a jitter draw in
// [0.5, 1.0) from the worker's substream of jitterSeed, so backoff
// schedules replay exactly. breakerThreshold consecutive failures trip
// a worker's circuit breaker; a tripped worker fails fast until a
// half-open health probe succeeds.
const (
	maxAttempts      = 3
	baseDelay        = 25 * time.Millisecond
	maxDelay         = time.Second
	breakerThreshold = 3
	jitterSeed       = 1
)

var (
	errBreakerOpen = errors.New("shard: worker circuit breaker is open")
	errNoFallback  = errors.New("shard: no local fallback worker configured")
)

// fleetHealth is the coordinator's per-campaign view of worker
// health: consecutive-failure counts, breaker state, jitter streams
// and the local-absorption fallback. Safe for concurrent use by
// runBatch's shard goroutines.
type fleetHealth struct {
	workers  []Worker
	fallback Worker
	sleep    func(time.Duration)

	mu     sync.Mutex
	fails  []int
	open   []bool
	jitter []*simrand.Source
}

func newFleetHealth(workers []Worker, fallback Worker) *fleetHealth {
	h := &fleetHealth{
		workers:  workers,
		fallback: fallback,
		sleep:    time.Sleep,
		fails:    make([]int, len(workers)),
		open:     make([]bool, len(workers)),
		jitter:   make([]*simrand.Source, len(workers)),
	}
	root := simrand.New(jitterSeed)
	for i := range h.jitter {
		h.jitter[i] = root.Substream(fmt.Sprintf("shard/retry/worker%02d", i))
	}
	return h
}

// execute runs one visit of cells on worker w: up to maxAttempts
// tries with jittered backoff between them. A tripped breaker fails
// fast with errBreakerOpen unless a half-open health probe readmits
// the worker; a fatal error aborts the visit immediately.
func (h *fleetHealth) execute(w int, cells []fleet.Cell) ([]fleet.CellResult, error) {
	if !h.admit(w) {
		return nil, errBreakerOpen
	}
	var lastErr error
	for a := 0; a < maxAttempts; a++ {
		if a > 0 {
			h.sleep(h.backoff(w, a))
		}
		res, err := h.workers[w].Execute(cells)
		if err == nil {
			h.recordSuccess(w)
			return res, nil
		}
		lastErr = err
		if Classify(err) == ClassFatal {
			return nil, err
		}
		if h.recordFailure(w) {
			break
		}
	}
	return nil, lastErr
}

// admit reports whether worker w may be tried: true when its breaker
// is closed, or when a half-open health probe finds a tripped worker
// healthy again (a restarted process), which also re-closes the
// breaker. The probe itself advances the worker's fault-event clock —
// probing is how partition windows burn down.
func (h *fleetHealth) admit(w int) bool {
	h.mu.Lock()
	open := h.open[w]
	h.mu.Unlock()
	if !open {
		return true
	}
	hc, ok := h.workers[w].(HealthChecker)
	if !ok || hc.Health() != nil {
		return false
	}
	h.mu.Lock()
	h.open[w] = false
	h.fails[w] = 0
	h.mu.Unlock()
	return true
}

// recordFailure counts one consecutive failure, reporting whether it
// tripped the breaker.
func (h *fleetHealth) recordFailure(w int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fails[w]++
	if h.fails[w] >= breakerThreshold {
		h.open[w] = true
		return true
	}
	return false
}

func (h *fleetHealth) recordSuccess(w int) {
	h.mu.Lock()
	h.fails[w] = 0
	h.mu.Unlock()
}

// backoff computes the attempt'th retry delay for worker w:
// exponential from baseDelay, capped at maxDelay, scaled by a
// deterministic jitter draw in [0.5, 1.0) from the worker's seeded
// substream.
func (h *fleetHealth) backoff(w, attempt int) time.Duration {
	d := baseDelay << (attempt - 1)
	if d <= 0 || d > maxDelay {
		d = maxDelay
	}
	h.mu.Lock()
	f := 0.5 + 0.5*h.jitter[w].Float64()
	h.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// absorb executes cells on the local fallback worker — graceful
// degradation when a shard ran out of remote workers. The results are
// byte-identical to what any worker would have produced (label-keyed
// substreams), and they reach the merge through Run like every other
// answer.
func (h *fleetHealth) absorb(cells []fleet.Cell) ([]fleet.CellResult, error) {
	if h.fallback == nil {
		return nil, errNoFallback
	}
	return h.fallback.Execute(cells)
}

// InjectFaults wraps a worker with one schedule of a compiled fault
// plan (faults.Plan.Injector): Execute calls are gated by NextCall,
// and the wrapper exposes the schedule's Health as the worker's
// HealthChecker, so breaker probes advance the same event clock. A
// torn decision lets the inner worker execute — and persist — before
// the reply is dropped, the in-process analogue of a response cut
// mid-body.
func InjectFaults(w Worker, ws *faults.WorkerState) Worker {
	return &faultyWorker{inner: w, ws: ws}
}

type faultyWorker struct {
	inner Worker
	ws    *faults.WorkerState
}

func (f *faultyWorker) Begin(rc RunContext, index, count int) error {
	return f.inner.Begin(rc, index, count)
}

func (f *faultyWorker) Execute(cells []fleet.Cell) ([]fleet.CellResult, error) {
	d := f.ws.NextCall()
	if d.Err != nil {
		return nil, d.Err
	}
	if d.Delay > 0 {
		time.Sleep(d.Delay)
	}
	res, err := f.inner.Execute(cells)
	if err != nil {
		return nil, err
	}
	if d.Torn {
		return nil, &faults.Error{Msg: "faults: injected torn response (work done, reply lost)"}
	}
	return res, nil
}

func (f *faultyWorker) Shard() (store.ShardData, bool, error) { return f.inner.Shard() }
func (f *faultyWorker) Close() error                          { return f.inner.Close() }
func (f *faultyWorker) Health() error                         { return f.ws.Health() }
