package shard

// White-box tests for the resilience layer: error classification,
// backoff determinism, circuit-breaker lifecycle — and the benchmark
// proving the no-fault path adds no allocations to a worker call.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cloudvar/internal/faults"
	"cloudvar/internal/fleet"
	"cloudvar/internal/store"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want ErrorClass
	}{
		{errors.New("connection refused"), ClassTransient},
		{&StatusError{Code: 500}, ClassTransient},
		{&StatusError{Code: 503}, ClassTransient},
		{&StatusError{Code: 408}, ClassTransient}, // timeout: try again
		{&StatusError{Code: 429}, ClassTransient}, // pressure: try again
		{&StatusError{Code: 400}, ClassFatal},     // protocol refusal
		{&StatusError{Code: 404}, ClassFatal},
		{&StatusError{Code: 413}, ClassFatal},
		{fmt.Errorf("shard: shard 2: %w", &StatusError{Code: 400}), ClassFatal}, // wrapped
		{nil, ClassTransient},
		// Injected faults model infrastructure, not protocol: retry.
		{&faults.Error{Msg: "faults: injected"}, ClassTransient},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestBackoffIsCappedExponentialAndDeterministic(t *testing.T) {
	mk := func() *fleetHealth {
		return newFleetHealth(make([]Worker, 2), nil)
	}
	a, b := mk(), mk()
	// 25ms doubling reaches the 1s cap at the seventh retry.
	for attempt := 1; attempt <= 8; attempt++ {
		da := a.backoff(0, attempt)
		if db := b.backoff(0, attempt); da != db {
			t.Fatalf("attempt %d: same seed gave %v vs %v", attempt, da, db)
		}
		// Jitter scales [0.5, 1.0): never above the cap, never below
		// half the exponential step.
		step := 25 * time.Millisecond << (attempt - 1)
		if step > time.Second {
			step = time.Second
		}
		if da < step/2 || da >= step {
			t.Errorf("attempt %d: backoff %v outside [%v, %v)", attempt, da, step/2, step)
		}
	}
	// Distinct workers draw from distinct substreams.
	same := true
	for attempt := 1; attempt <= 5; attempt++ {
		if a.backoff(0, attempt) != a.backoff(1, attempt) {
			same = false
		}
	}
	if same {
		t.Error("workers 0 and 1 share a jitter stream")
	}
}

// scriptedWorker fails its first `failures` Execute calls, then
// succeeds; Health answers healthy after `healthyAfter` probes.
type scriptedWorker struct {
	failures     int
	healthyAfter int

	calls, probes int
}

func (w *scriptedWorker) Begin(rc RunContext, index, count int) error { return nil }
func (w *scriptedWorker) Shard() (store.ShardData, bool, error)       { return store.ShardData{}, false, nil }
func (w *scriptedWorker) Close() error                                { return nil }

func (w *scriptedWorker) Execute(cells []fleet.Cell) ([]fleet.CellResult, error) {
	w.calls++
	if w.calls <= w.failures {
		return nil, errors.New("scripted failure")
	}
	return make([]fleet.CellResult, len(cells)), nil
}

func (w *scriptedWorker) Health() error {
	w.probes++
	if w.probes <= w.healthyAfter {
		return errors.New("scripted probe failure")
	}
	return nil
}

func instantHealth(workers []Worker) *fleetHealth {
	h := newFleetHealth(workers, nil)
	h.sleep = func(time.Duration) {} // no wall-clock in unit tests
	return h
}

func TestBreakerTripsAndFailsFast(t *testing.T) {
	w := &scriptedWorker{failures: 1 << 30, healthyAfter: 1 << 30}
	h := instantHealth([]Worker{w})
	for i := 1; i <= 2; i++ {
		if h.recordFailure(0) {
			t.Fatalf("breaker tripped on failure %d, want the third", i)
		}
	}
	// The visit's first attempt is the third consecutive failure: it
	// trips the breaker and ends the visit.
	if _, err := h.execute(0, nil); err == nil {
		t.Fatal("execute on an always-failing worker succeeded")
	}
	if w.calls != 1 {
		t.Errorf("worker saw %d calls, want 1 (the third failure trips)", w.calls)
	}
	// Tripped and still unhealthy: fail fast without touching Execute.
	if _, err := h.execute(0, nil); !errors.Is(err, errBreakerOpen) {
		t.Errorf("tripped breaker returned %v, want errBreakerOpen", err)
	}
	if w.calls != 1 {
		t.Errorf("open breaker let a call through (%d calls)", w.calls)
	}
}

func TestBreakerHalfOpenReadmitsHealthyWorker(t *testing.T) {
	// Fails three times (exhausting the visit and tripping the
	// breaker), then both the probe and the work succeed — the
	// restarted-process story.
	w := &scriptedWorker{failures: 3}
	h := instantHealth([]Worker{w})
	if _, err := h.execute(0, nil); err == nil {
		t.Fatal("first visit should exhaust the worker")
	}
	h.mu.Lock()
	open := h.open[0]
	h.mu.Unlock()
	if w.calls != 3 || !open {
		t.Fatalf("first visit made %d calls, breaker open %v; want 3 calls and a tripped breaker", w.calls, open)
	}
	res, err := h.execute(0, nil)
	if err != nil {
		t.Fatalf("healthy worker not readmitted: %v", err)
	}
	if res == nil {
		t.Fatal("readmitted worker returned no results")
	}
	if w.probes != 1 {
		t.Errorf("readmission used %d probes, want 1", w.probes)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.open[0] || h.fails[0] != 0 {
		t.Errorf("breaker not re-closed after readmission: open=%v fails=%d", h.open[0], h.fails[0])
	}
}

func TestBreakerStaysOpenWithoutHealthChecker(t *testing.T) {
	// A worker type with no Health method can never half-open.
	w := &InProcWorker{} // storeless, never executed — only admit matters
	h := instantHealth([]Worker{w})
	h.open[0] = true
	if h.admit(0) {
		t.Error("breaker half-opened a worker that cannot be probed")
	}
}

func TestFatalErrorAbortsVisit(t *testing.T) {
	w := &fatalWorker{}
	h := instantHealth([]Worker{w})
	_, err := h.execute(0, nil)
	if Classify(err) != ClassFatal {
		t.Fatalf("fatal error lost its class: %v", err)
	}
	if w.calls != 1 {
		t.Errorf("fatal error retried: %d calls", w.calls)
	}
}

type fatalWorker struct{ calls int }

func (w *fatalWorker) Begin(rc RunContext, index, count int) error { return nil }
func (w *fatalWorker) Shard() (store.ShardData, bool, error)       { return store.ShardData{}, false, nil }
func (w *fatalWorker) Close() error                                { return nil }
func (w *fatalWorker) Execute(cells []fleet.Cell) ([]fleet.CellResult, error) {
	w.calls++
	return nil, &StatusError{URL: "http://w", Code: 400, Msg: "spec key mismatch"}
}

func TestAbsorbWithoutFallback(t *testing.T) {
	h := instantHealth([]Worker{&scriptedWorker{}})
	if _, err := h.absorb(nil); !errors.Is(err, errNoFallback) {
		t.Errorf("absorb with no fallback returned %v", err)
	}
}

// BenchmarkCoordinatorRetryPath measures the resilience wrapper on
// the no-fault path: admit + execute + recordSuccess around a worker
// that immediately returns. The layer must add zero allocations —
// retries and probes may allocate, steady state may not.
func BenchmarkCoordinatorRetryPath(b *testing.B) {
	w := &scriptedWorker{}
	h := instantHealth([]Worker{w})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.execute(0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCoordinatorRetryPathDoesNotAllocate(t *testing.T) {
	w := &scriptedWorker{}
	h := instantHealth([]Worker{w})
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := h.execute(0, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("no-fault execute path allocates %.1f objects per call, want 0", allocs)
	}
}
