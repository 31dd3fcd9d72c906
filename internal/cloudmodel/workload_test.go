package cloudmodel

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"cloudvar/internal/netem"
	"cloudvar/internal/simrand"
	"cloudvar/internal/workload"
)

// sortedRequests is the order RunWorkload served requests in before it
// merged: every stream's requests, client by client, stable-sorted by
// (time, client index).
func sortedRequests(streams [][]float64) []netem.Request {
	var reqs []netem.Request
	for i, ts := range streams {
		for _, t := range ts {
			reqs = append(reqs, netem.Request{TimeSec: t, Client: i})
		}
	}
	sort.SliceStable(reqs, func(a, b int) bool {
		if reqs[a].TimeSec != reqs[b].TimeSec {
			return reqs[a].TimeSec < reqs[b].TimeSec
		}
		return reqs[a].Client < reqs[b].Client
	})
	return reqs
}

// TestMergeStreamsMatchesStableSort pins the merged request list to
// the stable sort it replaced, on the shapes where a merge could differ
// from it: equal times across clients, repeated times within a trace,
// an empty stream and a single client; then on generated streams of
// every arrival process.
func TestMergeStreamsMatchesStableSort(t *testing.T) {
	cases := map[string][][]float64{
		"equal-times-across-clients": {{0, 1, 2, 2, 5}, {1, 2, 5}, {0, 2, 2, 6}},
		"repeated-trace-times":       {{0, 0, 0.5, 0.5, 0.5, 3}, {0.5, 3, 3}},
		"empty-stream":               {{1, 2, 3}, {}, {0.5, 2.5}},
		"all-empty":                  {{}, {}},
		"single-client":              {{0.25, 0.25, 1, 4}},
		"no-clients":                 {},
	}
	spec := workload.Spec{AggregateRPS: 20, Clients: []workload.Client{
		{ID: "web", RateFraction: 0.4, Arrival: workload.Arrival{Process: workload.Poisson}},
		{ID: "etl", RateFraction: 0.3, Arrival: workload.Arrival{Process: workload.Gamma, CV: 2}},
		{ID: "bulk", RateFraction: 0.2, Arrival: workload.Arrival{Process: workload.Weibull, Shape: 0.7}},
		{ID: "replay", RateFraction: 0.1, Arrival: workload.Arrival{Process: workload.Trace, Times: []float64{0, 0, 1, 1, 2.5, 40, 40}}},
	}}
	for seed := uint64(1); seed <= 5; seed++ {
		streams := make([][]float64, len(spec.Clients))
		for i, c := range spec.Clients {
			streams[i] = c.Stream(spec.AggregateRPS, 120, simrand.New(seed).Substream("client/"+c.ID), nil)
		}
		cases[fmt.Sprintf("generated-seed-%d", seed)] = streams
	}
	for name, streams := range cases {
		want := sortedRequests(streams)
		got := mergeStreams(nil, streams, make([]int, len(streams)))
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: merged order differs from the stable sort\n got %v\nwant %v", name, got, want)
		}
	}
}
