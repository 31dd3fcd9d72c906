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

	"cloudvar/internal/netem"
	"cloudvar/internal/simrand"
	"cloudvar/internal/trace"
	"cloudvar/internal/workload"
)

// RunWorkload replays spec's client request streams over the measured
// series of one campaign cell and returns per-client latency metrics.
//
// Determinism contract: every client's arrivals come from
// substream("client/<id>") and the serving loop's RTT jitter from
// substream("serve"), all derived by the caller from the cell's
// identity — never from an advanced generator — so the result is
// bit-identical at any worker count and across resume boundaries, and
// distinct client IDs draw from independent substreams.
func RunWorkload(spec workload.Spec, series *trace.Series, p Profile, cfg CampaignConfig, substream func(name string) *simrand.Source) (*workload.CellMetrics, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if series == nil || len(series.Points) == 0 {
		return nil, fmt.Errorf("cloudmodel: workload replay needs a measured series")
	}

	env := netem.PathEnvelope{
		Times: make([]float64, len(series.Points)),
		Gbps:  make([]float64, len(series.Points)),
	}
	for i, pt := range series.Points {
		env.Times[i] = pt.TimeSec
		env.Gbps[i] = pt.BandwidthGbps
	}

	// Generate each client's stream from its own named substream, then
	// merge the streams into one arrival-ordered request list. Ties
	// break by spec declaration order — a fixed rule, so the merge is
	// deterministic.
	streams := make([][]float64, len(spec.Clients))
	total := 0
	for i, c := range spec.Clients {
		streams[i] = c.Stream(spec.AggregateRPS, cfg.DurationSec, substream("client/"+c.ID), nil)
		total += len(streams[i])
	}
	reqs := mergeStreams(streams, total)

	latencies, err := netem.ServeRequests(reqs, spec.RequestGbit(), env, p.VNIC, cfg.WriteBytes, substream("serve"))
	if err != nil {
		return nil, fmt.Errorf("cloudmodel: workload replay: %w", err)
	}

	out := &workload.CellMetrics{Clients: make([]workload.ClientMetrics, len(spec.Clients))}
	for i, c := range spec.Clients {
		out.Clients[i] = workload.ClientMetrics{
			ID:        c.ID,
			Class:     c.Class(),
			LatencyMs: make([]float64, 0, len(streams[i])),
		}
	}
	for i, r := range reqs {
		cm := &out.Clients[r.Client]
		cm.LatencyMs = append(cm.LatencyMs, latencies[i])
	}
	return out, nil
}

// mergeStreams merges per-client arrival streams into one request list
// ordered by (time, client index), each client's requests in stream
// order — the order a stable sort by that key gives, without sorting.
// It needs every stream non-decreasing, which Client.Stream guarantees:
// stochastic gaps are non-negative, and Arrival.Validate refuses a
// trace time that decreases. Each step takes the earliest head, the
// lowest client index on a tie; a spec has a handful of clients, so
// each step scans every head.
func mergeStreams(streams [][]float64, total int) []netem.Request {
	reqs := make([]netem.Request, 0, total)
	next := make([]int, len(streams))
	for len(reqs) < total {
		best := -1
		var at float64
		for i, ts := range streams {
			if next[i] < len(ts) && (best < 0 || ts[next[i]] < at) {
				best, at = i, ts[next[i]]
			}
		}
		reqs = append(reqs, netem.Request{TimeSec: at, Client: best})
		next[best]++
	}
	return reqs
}
