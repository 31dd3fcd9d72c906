package main

// A stdlib-only span recorder. Spans are recorded from the benchmark's
// own files around calls into each layer's public functions and the
// interfaces the program accepts (shard.Worker, the HTTP transport,
// the Progress hook, spark.Cluster.RunJob); the program itself carries
// no instrumentation. Spans stay in memory and are written as JSON
// when the run ends.

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call. Parent is 0 for a root span; Run groups the
// spans of one benchmark iteration.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Run     int    `json:"run"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder collects spans. A nil *recorder records nothing, so an
// untraced run pays one nil check per layer boundary.
type recorder struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(run, parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: run, Name: name, StartNS: now, EndNS: now})
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNS = now
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSON writes every span to path.
func (r *recorder) writeJSON(path string) error {
	b, err := json.MarshalIndent(r.snapshot(), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// tracer binds a recorder to one iteration and a parent span, the
// shape every instrumented call site needs.
type tracer struct {
	rec    *recorder
	run    int
	parent int
}

func (t tracer) begin(name string) int { return t.rec.begin(t.run, t.parent, name) }
func (t tracer) end(id int)            { t.rec.end(id) }

// child returns a tracer whose spans nest under id.
func (t tracer) child(id int) tracer { return tracer{rec: t.rec, run: t.run, parent: id} }

// spanTree indexes one iteration's spans for self-time queries.
type spanTree struct {
	spans    []span
	children map[int][]span
}

func newSpanTree(all []span, run int) spanTree {
	t := spanTree{children: make(map[int][]span)}
	for _, s := range all {
		if s.Run != run {
			continue
		}
		t.spans = append(t.spans, s)
		t.children[s.Parent] = append(t.children[s.Parent], s)
	}
	return t
}

// self is the span's duration minus the part of its interval that its
// children cover. Concurrent children (the shard goroutines) are
// counted once, as the union of their intervals.
func (t spanTree) self(s span) time.Duration {
	return s.dur() - covered(t.children[s.ID], s.StartNS, s.EndNS)
}

// covered is the length of the union of the spans' intervals, clipped
// to [lo, hi].
func covered(spans []span, lo, hi int64) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.StartNS, lo), min(s.EndNS, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	total += curB - curA
	return time.Duration(total)
}

// named returns the iteration's spans with the given name, in start
// order.
func (t spanTree) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartNS < out[j].StartNS })
	return out
}

// totalMS sums the durations of the named spans, in milliseconds.
func (t spanTree) totalMS(name string) float64 {
	var d time.Duration
	for _, s := range t.named(name) {
		d += s.dur()
	}
	return ms(d)
}

// selfMS sums the self times of the named spans, in milliseconds.
func (t spanTree) selfMS(name string) float64 {
	var d time.Duration
	for _, s := range t.named(name) {
		d += t.self(s)
	}
	return ms(d)
}

// barrierWait groups concurrent spans into batches — a batch's calls
// overlap in time, and the next batch starts only after the last call
// of the previous one returned — and sums, over batches, the slowest
// call's duration minus each call's own: the time workers sat idle at
// the coordinator's batch barrier.
func barrierWait(calls []span) time.Duration {
	var total time.Duration
	for i := 0; i < len(calls); {
		j, end := i+1, calls[i].EndNS
		for j < len(calls) && calls[j].StartNS < end {
			end = max(end, calls[j].EndNS)
			j++
		}
		var slowest time.Duration
		for _, c := range calls[i:j] {
			slowest = max(slowest, c.dur())
		}
		for _, c := range calls[i:j] {
			total += slowest - c.dur()
		}
		i = j
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
