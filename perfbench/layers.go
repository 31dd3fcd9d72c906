package main

// Layer boundaries the benchmark can observe without touching the
// program: a shard.Worker decorator and an http.RoundTripper under
// shard.HTTPWorker's client.

import (
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cloudvar/internal/fleet"
	"cloudvar/internal/shard"
	"cloudvar/internal/store"
)

// tracedWorker decorates a shard.Worker: it opens a span around every
// call, counts failed Execute visits (each one is retried on another
// worker or absorbed by the fallback), and samples the live heap when a
// batch of cells completes. With a nil recorder it only samples.
type tracedWorker struct {
	inner   shard.Worker
	t       tracer
	peak    *heapPeak
	retries *atomic.Int64
	// current is the span of the call in flight, the parent of the wire
	// requests it issues.
	current atomic.Int64
}

func (w *tracedWorker) call(name string, f func() error) error {
	id := w.t.begin(name)
	w.current.Store(int64(id))
	err := f()
	w.current.Store(0)
	w.t.end(id)
	return err
}

func (w *tracedWorker) Begin(rc shard.RunContext, index, count int) error {
	return w.call("shard.begin", func() error { return w.inner.Begin(rc, index, count) })
}

func (w *tracedWorker) Execute(cells []fleet.Cell) ([]fleet.CellResult, error) {
	var res []fleet.CellResult
	err := w.call("shard.execute", func() (err error) {
		res, err = w.inner.Execute(cells)
		return err
	})
	if err != nil {
		w.retries.Add(1)
	}
	w.peak.sample()
	return res, err
}

func (w *tracedWorker) Shard() (store.ShardData, bool, error) {
	var d store.ShardData
	var ok bool
	err := w.call("shard.collect", func() (err error) {
		d, ok, err = w.inner.Shard()
		return err
	})
	return d, ok, err
}

func (w *tracedWorker) Close() error {
	return w.call("shard.close", w.inner.Close)
}

// tracedHTTPWorker keeps the HTTP worker's health probe visible to the
// coordinator's circuit breaker through the decorator.
type tracedHTTPWorker struct {
	*tracedWorker
	http *shard.HTTPWorker
}

func (w tracedHTTPWorker) Health() error { return w.http.Health() }

// wireStats accumulates the shard wire's traffic.
type wireStats struct {
	mu       sync.Mutex
	requests int
	bytesOut int64
	bytesIn  int64
	rttMS    []float64
}

// wireTransport counts and times every request a worker's client
// sends. A request's round trip runs from RoundTrip until its response
// body is closed, so it includes reading the whole body.
type wireTransport struct {
	base  http.RoundTripper
	w     *tracedWorker // the worker whose calls issue the requests
	stats *wireStats
}

func (w *wireTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := w.w.t
	tr.parent = int(w.w.current.Load())
	id := tr.begin("wire.request")
	start := time.Now()
	resp, err := w.base.RoundTrip(req)
	if err != nil {
		tr.end(id)
		return resp, err
	}
	out := max(req.ContentLength, 0)
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(in int64) {
		rtt := time.Since(start)
		tr.end(id)
		w.stats.mu.Lock()
		w.stats.requests++
		w.stats.bytesOut += out
		w.stats.bytesIn += in
		w.stats.rttMS = append(w.stats.rttMS, ms(rtt))
		w.stats.mu.Unlock()
	}}
	return resp, nil
}

// countingBody counts the bytes read from a response body and reports
// them once, on Close.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}
