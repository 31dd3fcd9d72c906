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

func TestRetryPolicyDefaults(t *testing.T) {
	p := RetryPolicy{}.withDefaults()
	if p.MaxAttempts != 3 || p.BaseDelay != 25*time.Millisecond || p.MaxDelay != time.Second || p.BreakerThreshold != 3 || p.Seed != 1 {
		t.Errorf("zero policy resolved to %+v", p)
	}
	set := RetryPolicy{MaxAttempts: 7, BaseDelay: time.Millisecond, MaxDelay: time.Minute, BreakerThreshold: 9, Seed: 4}
	if got := set.withDefaults(); got != set {
		t.Errorf("explicit policy rewritten: %+v", got)
	}
}

func TestBackoffIsCappedExponentialAndDeterministic(t *testing.T) {
	policy := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond, Seed: 11}
	mk := func() *fleetHealth {
		return newFleetHealth(make([]Worker, 2), nil, policy)
	}
	a, b := mk(), mk()
	for attempt := 1; attempt <= 5; attempt++ {
		da := a.backoff(0, attempt)
		if db := b.backoff(0, attempt); da != db {
			t.Fatalf("attempt %d: same seed gave %v vs %v", attempt, da, db)
		}
		// Jitter scales [0.5, 1.0): never above the cap, never below
		// half the exponential step.
		base := policy.BaseDelay << (attempt - 1)
		if base > policy.MaxDelay {
			base = policy.MaxDelay
		}
		if da < base/2 || da >= base {
			t.Errorf("attempt %d: backoff %v outside [%v, %v)", attempt, da, base/2, base)
		}
		if attempt > 3 && da > policy.MaxDelay {
			t.Errorf("attempt %d: backoff %v above cap %v", attempt, da, policy.MaxDelay)
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

func instantHealth(workers []Worker, policy RetryPolicy) *fleetHealth {
	h := newFleetHealth(workers, nil, policy)
	h.sleep = func(time.Duration) {} // no wall-clock in unit tests
	return h
}

func TestBreakerTripsAndFailsFast(t *testing.T) {
	w := &scriptedWorker{failures: 1 << 30, healthyAfter: 1 << 30}
	h := instantHealth([]Worker{w}, RetryPolicy{MaxAttempts: 5, BreakerThreshold: 2})
	if _, err := h.execute(0, nil); err == nil {
		t.Fatal("execute on an always-failing worker succeeded")
	}
	// The breaker tripped at 2 consecutive failures, cutting the visit
	// short of its 5 attempts.
	if w.calls != 2 {
		t.Errorf("worker saw %d calls, want 2 (breaker threshold)", w.calls)
	}
	// Tripped and still unhealthy: fail fast without touching Execute.
	if _, err := h.execute(0, nil); !errors.Is(err, errBreakerOpen) {
		t.Errorf("tripped breaker returned %v, want errBreakerOpen", err)
	}
	if w.calls != 2 {
		t.Errorf("open breaker let a call through (%d calls)", w.calls)
	}
}

func TestBreakerHalfOpenReadmitsHealthyWorker(t *testing.T) {
	// Fails twice (tripping the threshold-2 breaker), then both the
	// probe and the work succeed — the restarted-process story.
	w := &scriptedWorker{failures: 2}
	h := instantHealth([]Worker{w}, RetryPolicy{MaxAttempts: 2, BreakerThreshold: 2})
	if _, err := h.execute(0, nil); err == nil {
		t.Fatal("first visit should exhaust the worker")
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
	h := instantHealth([]Worker{w}, RetryPolicy{BreakerThreshold: 1})
	h.open[0] = true
	if h.admit(0) {
		t.Error("breaker half-opened a worker that cannot be probed")
	}
}

func TestFatalErrorAbortsVisit(t *testing.T) {
	w := &fatalWorker{}
	h := instantHealth([]Worker{w}, RetryPolicy{MaxAttempts: 5, BreakerThreshold: 5})
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
	h := instantHealth([]Worker{&scriptedWorker{}}, RetryPolicy{})
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
	h := instantHealth([]Worker{w}, RetryPolicy{})
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
	h := instantHealth([]Worker{w}, RetryPolicy{})
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := h.execute(0, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("no-fault execute path allocates %.1f objects per call, want 0", allocs)
	}
}
