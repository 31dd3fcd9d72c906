package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; NaN-free input, 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match an external check of the same
// values. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	m := n + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// Heap accounting from runtime/metrics. allocs is cumulative heap bytes
// allocated; live is the heap retained by the last garbage collection.
const (
	metricAllocs = "/gc/heap/allocs:bytes"
	metricLive   = "/gc/heap/live:bytes"
)

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func heapAllocs() uint64 { return readMetric(metricAllocs) }

// heapPeak tracks the highest live heap sampled at unit completions.
// Samples arrive from the shard goroutines concurrently.
type heapPeak struct {
	mu   sync.Mutex
	peak uint64
}

func (h *heapPeak) sample() {
	v := readMetric(metricLive)
	h.mu.Lock()
	h.peak = max(h.peak, v)
	h.mu.Unlock()
}

func (h *heapPeak) value() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peak
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// cpuTime is the CPU time (user plus system) every thread of the
// process has used so far. The kernel leaves out the time a thread
// waited for a CPU, on a busy run queue or stolen by the hypervisor, so
// unlike wall time it does not grow with the load other tenants put on
// a shared host.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
