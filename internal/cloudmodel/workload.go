package cloudmodel

// Workload replay: the glue between the traffic engine's request
// streams (internal/workload) and the netem serving loop. A campaign
// cell first measures its shaped path (RunCampaign), then RunWorkload
// replays the spec's client streams over the bandwidth that path
// actually achieved — so every adverse-condition scenario is
// experienced by chat-like, batch-like and bursty clients instead of
// one synthetic flow.

import (
	"fmt"
	"slices"

	"cloudvar/internal/netem"
	"cloudvar/internal/simrand"
	"cloudvar/internal/trace"
	"cloudvar/internal/workload"
)

// WorkloadScratch is a reusable per-worker arena for RunWorkload's
// transient buffers: the envelope columns, each client's arrival
// stream, the merge's cursors and request list, and the served
// latencies. Reusing
// one arena across cells removes a traffic cell's buffer allocations
// without affecting output: the arena lends memory, never state, and
// the returned metrics share no memory with it. The zero value is
// ready to use.
type WorkloadScratch struct {
	env       netem.PathEnvelope
	streams   [][]float64
	next      []int
	reqs      []netem.Request
	latencies []float64
}

// RunWorkload replays spec's client request streams over the measured
// series of one campaign cell and returns per-client latency metrics.
// It is RunWorkloadScratch with a fresh arena.
func RunWorkload(spec workload.Spec, series *trace.Series, p Profile, cfg CampaignConfig, substream func(name string) *simrand.Source) (*workload.CellMetrics, error) {
	return RunWorkloadScratch(spec, series, p, cfg, substream, &WorkloadScratch{})
}

// RunWorkloadScratch is RunWorkload with an explicit arena. The
// returned metrics are freshly allocated — one array holds every
// client's latencies, each client's LatencyMs a full slice expression
// of it — and are bit-identical for equal inputs regardless of how the
// arena was previously used.
//
// Determinism contract: every client's arrivals come from
// substream("client/<id>") and the serving loop's RTT jitter from
// substream("serve"), all derived by the caller from the cell's
// identity — never from an advanced generator — so the result is
// bit-identical at any worker count and across resume boundaries, and
// distinct client IDs draw from independent substreams.
func RunWorkloadScratch(spec workload.Spec, series *trace.Series, p Profile, cfg CampaignConfig, substream func(name string) *simrand.Source, scratch *WorkloadScratch) (*workload.CellMetrics, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if series == nil || len(series.Points) == 0 {
		return nil, fmt.Errorf("cloudmodel: workload replay needs a measured series")
	}

	n := len(series.Points)
	env := netem.PathEnvelope{
		Times: slices.Grow(scratch.env.Times[:0], n)[:n],
		Gbps:  slices.Grow(scratch.env.Gbps[:0], n)[:n],
	}
	scratch.env = env
	for i, pt := range series.Points {
		env.Times[i] = pt.TimeSec
		env.Gbps[i] = pt.BandwidthGbps
	}

	// Generate each client's stream from its own named substream, then
	// merge the streams into one arrival-ordered request list. Ties
	// break by spec declaration order — a fixed rule, so the merge is
	// deterministic.
	if short := len(spec.Clients) - len(scratch.streams); short > 0 {
		scratch.streams = append(scratch.streams, make([][]float64, short)...)
	}
	streams := scratch.streams[:len(spec.Clients)]
	total := 0
	for i, c := range spec.Clients {
		streams[i] = c.Stream(spec.AggregateRPS, cfg.DurationSec, substream("client/"+c.ID), streams[i][:0])
		total += len(streams[i])
	}
	scratch.next = slices.Grow(scratch.next[:0], len(streams))[:len(streams)]
	reqs := mergeStreams(slices.Grow(scratch.reqs[:0], total), streams, scratch.next)
	scratch.reqs = reqs

	latencies, err := netem.ServeRequests(scratch.latencies[:0], reqs, spec.RequestGbit(), env, p.VNIC, cfg.WriteBytes, substream("serve"))
	if err != nil {
		return nil, fmt.Errorf("cloudmodel: workload replay: %w", err)
	}
	scratch.latencies = latencies

	// Carve each client's latencies from one exact array; the full
	// slice expression keeps an append to one client from running into
	// the next, and a client that served nothing keeps an empty, non-nil
	// LatencyMs.
	all := make([]float64, total)
	out := &workload.CellMetrics{Clients: make([]workload.ClientMetrics, len(spec.Clients))}
	off := 0
	for i, c := range spec.Clients {
		end := off + len(streams[i])
		out.Clients[i] = workload.ClientMetrics{ID: c.ID, Class: c.Class(), LatencyMs: all[off:off:end]}
		off = end
	}
	for i, r := range reqs {
		cm := &out.Clients[r.Client]
		cm.LatencyMs = append(cm.LatencyMs, latencies[i])
	}
	return out, nil
}

// mergeStreams appends per-client arrival streams to dst as one request
// list ordered by (time, client index), each client's requests in
// stream order — the order a stable sort by that key gives, without
// sorting. next holds one cursor per stream. It needs every stream
// non-decreasing, which Client.Stream guarantees: stochastic gaps are
// non-negative, and Arrival.Validate refuses a trace time that
// decreases. Each step takes the earliest head, the lowest client
// index on a tie; a spec has a handful of clients, so each step scans
// every head.
func mergeStreams(dst []netem.Request, streams [][]float64, next []int) []netem.Request {
	clear(next)
	for {
		best := -1
		var at float64
		for i, ts := range streams {
			if next[i] < len(ts) && (best < 0 || ts[next[i]] < at) {
				best, at = i, ts[next[i]]
			}
		}
		if best < 0 {
			return dst
		}
		dst = append(dst, netem.Request{TimeSec: at, Client: best})
		next[best]++
	}
}
