package cloudmodel_test

import (
	"bytes"
	"testing"

	"cloudvar/internal/cloudmodel"
	"cloudvar/internal/simrand"
	"cloudvar/internal/store"
	"cloudvar/internal/trace"
	"cloudvar/internal/workload"
)

// TestRunWorkloadScratchMatchesFresh pushes one arena through cells
// that differ in series length, client count and arrival process, one
// of them with a trace client whose every arrival falls past the cell
// and so serves no request. Each cell's metrics must encode to the
// columnar bytes a fresh RunWorkload gives, nil and empty slices kept
// apart. After each cell, every earlier result must still encode to
// its bytes: the results share no memory with the arena.
func TestRunWorkloadScratchMatchesFresh(t *testing.T) {
	p, err := cloudmodel.EC2Profile("c5.xlarge")
	if err != nil {
		t.Fatal(err)
	}
	poisson := workload.Arrival{Process: workload.Poisson}
	gamma := workload.Arrival{Process: workload.Gamma, CV: 2}
	weibull := workload.Arrival{Process: workload.Weibull, Shape: 0.7}
	cells := []struct {
		sec  float64
		spec workload.Spec
	}{
		{300, workload.Spec{AggregateRPS: 4, RequestKB: 8192, Clients: []workload.Client{
			{ID: "web", RateFraction: 0.7, SLOClass: "interactive", Arrival: poisson},
			{ID: "etl", RateFraction: 0.3, SLOClass: "batch", Arrival: gamma},
		}}},
		{60, workload.Spec{AggregateRPS: 6, RequestKB: 4096, Clients: []workload.Client{
			{ID: "bulk", RateFraction: 0.5, Arrival: weibull},
			{ID: "late", RateFraction: 0.2, SLOClass: "replay", Arrival: workload.Arrival{Process: workload.Trace, Times: []float64{90, 120}}},
			{ID: "web", RateFraction: 0.3, SLOClass: "interactive", Arrival: poisson},
		}}},
		{600, workload.Spec{AggregateRPS: 2, Clients: []workload.Client{
			{ID: "etl", RateFraction: 1, SLOClass: "batch", Arrival: gamma},
		}}},
		{120, workload.Spec{AggregateRPS: 10, RequestKB: 8192, Clients: []workload.Client{
			{ID: "replay", RateFraction: 0.1, Arrival: workload.Arrival{Process: workload.Trace, Times: []float64{0, 0, 1, 30, 30, 119, 200}}},
			{ID: "web", RateFraction: 0.6, SLOClass: "interactive", Arrival: poisson},
			{ID: "bulk", RateFraction: 0.3, Arrival: weibull},
		}}},
		{900, workload.Spec{AggregateRPS: 3, RequestKB: 8192, Clients: []workload.Client{
			{ID: "etl", RateFraction: 0.4, SLOClass: "batch", Arrival: gamma},
			{ID: "web", RateFraction: 0.6, SLOClass: "interactive", Arrival: poisson},
		}}},
	}
	var scratch cloudmodel.WorkloadScratch
	var results []*workload.CellMetrics
	var frames [][]byte
	for i, c := range cells {
		cfg := cloudmodel.DefaultCampaignConfig(c.sec)
		series, err := cloudmodel.RunCampaign(p, trace.FullSpeed, cfg, simrand.New(uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		substream := func(name string) *simrand.Source { return simrand.New(uint64(100 + i)).Substream(name) }
		got, err := cloudmodel.RunWorkloadScratch(c.spec, series, p, cfg, substream, &scratch)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		want, err := cloudmodel.RunWorkload(c.spec, series, p, cfg, substream)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if got.Requests() == 0 {
			t.Fatalf("cell %d served no requests", i)
		}
		for _, cm := range got.Clients {
			if cm.LatencyMs == nil {
				t.Fatalf("cell %d: client %s has nil latencies, want a non-nil slice", i, cm.ID)
			}
		}
		frame := workloadFrame(t, got)
		if !bytes.Equal(frame, workloadFrame(t, want)) {
			t.Fatalf("cell %d: the arena's metrics differ from a fresh replay's", i)
		}
		for j, prev := range results {
			if !bytes.Equal(workloadFrame(t, prev), frames[j]) {
				t.Fatalf("cell %d's replay changed cell %d's metrics", i, j)
			}
		}
		results = append(results, got)
		frames = append(frames, frame)
	}
	if n := len(results[1].Clients[1].LatencyMs); n != 0 {
		t.Fatalf("the late trace client served %d requests, want 0", n)
	}
}

// workloadFrame encodes m as the workload of a columnar cell frame.
func workloadFrame(t *testing.T, m *workload.CellMetrics) []byte {
	t.Helper()
	b, err := store.AppendCellFrame(nil, store.CellRecord{Label: "cell", Series: &trace.Series{}, Workload: m})
	if err != nil {
		t.Fatalf("encoding metrics: %v", err)
	}
	return b
}
