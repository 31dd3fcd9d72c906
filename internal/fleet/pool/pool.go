// Package pool provides a deterministic bounded-concurrency fan-out
// primitive: results are keyed by input index, so the output of a
// parallel run is independent of worker count and completion order.
// It is the low-level substrate of internal/fleet; figures also uses it
// directly to generate artifacts concurrently.
package pool

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the worker count used when a caller passes
// workers <= 0: the process's GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// NumWorkers normalises a requested worker count against n tasks:
// workers <= 0 means DefaultWorkers, and a pool never runs more
// workers than tasks. Exported so callers sizing per-worker scratch
// arenas (fleet) see exactly the worker count Collect will spawn.
func NumWorkers(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	return workers
}

// Collect runs fn(i) for every i in [0, n) across at most workers
// goroutines and returns the results and errors slotted by index.
// workers <= 0 means DefaultWorkers. A panicking fn is recovered into
// that index's error, so one bad task cannot take down the fleet.
// Collect never reorders: out[i] and errs[i] always belong to task i,
// regardless of which worker ran it or when it finished.
func Collect[T any](n, workers int, fn func(i int) (T, error)) (out []T, errs []error) {
	return CollectWorker(n, workers, func(_, i int) (T, error) { return fn(i) })
}

// CollectWorker is Collect with the running worker's index (in
// [0, NumWorkers(workers, n))) passed to fn. Tasks the same worker
// runs are strictly sequential, so fn may use worker-indexed mutable
// scratch without synchronisation — but because task-to-worker
// assignment is scheduling-dependent, such scratch must never
// influence results (the determinism-vs-reuse contract; results stay
// a pure function of i).
func CollectWorker[T any](n, workers int, fn func(worker, i int) (T, error)) (out []T, errs []error) {
	if n <= 0 {
		return nil, nil
	}
	out = make([]T, n)
	errs = make([]error, n)
	workers = NumWorkers(workers, n)

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = protect(fn, w, i)
			}
		}(w)
	}
	wg.Wait()
	return out, errs
}

// protect invokes fn(worker, i), converting a panic into an error.
func protect[T any](fn func(worker, i int) (T, error), w, i int) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero T
			out, err = zero, fmt.Errorf("pool: task %d panicked: %v", i, r)
		}
	}()
	return fn(w, i)
}
