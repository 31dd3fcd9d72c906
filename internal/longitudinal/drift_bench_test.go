package longitudinal_test

import (
	"testing"

	"cloudvar/internal/cloudmodel"
	"cloudvar/internal/fleet"
	"cloudvar/internal/longitudinal"
	"cloudvar/internal/store"
	"cloudvar/internal/testutil"
	"cloudvar/internal/workload"
)

// BenchmarkDriftAnalyze measures the drift report over two small
// stored traffic runs: one c5.xlarge under two regimes, three
// repetitions of 10 emulated minutes carrying the repository's
// two-class request mix, run under two seeds into one store and loaded
// once. Each iteration is one Analyze over the cells Load reduced —
// the bandwidth groups plus the per-SLO-class p99 drift, whose p99s
// Load already selected.
//
//	go test ./internal/longitudinal -run '^$' -bench BenchmarkDriftAnalyze -benchmem -count 10
func BenchmarkDriftAnalyze(b *testing.B) {
	st := testutil.TempStore(b)
	for i, runID := range []string{"base", "next"} {
		spec := testutil.EC2Spec(b, uint64(11+i), 1)
		spec.Repetitions = 3
		spec.Config = cloudmodel.DefaultCampaignConfig(600)
		spec.Workload = trafficMix()
		storeRun(b, st, runID, spec, store.RunMeta{})
	}
	runs, err := longitudinal.Load(st, "base", "next")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := longitudinal.Analyze(runs, longitudinal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Classes) == 0 {
			b.Fatal("no per-class drift groups")
		}
	}
}

// BenchmarkDriftLoad measures the drift read of two stored columnar
// runs of one c5.xlarge under two regimes, two repetitions of 24
// emulated hours each (8640 bins per cell), run under two seeds into
// one store. Each iteration is one Load of both runs: every frame's
// CRC, header, bandwidth column and workload, with the other four
// columns stepped over, the second run read into the first one's
// buffers. Its B/op is gated: decoding whole series again would
// allocate every cell's points.
//
//	go test ./internal/longitudinal -run '^$' -bench BenchmarkDriftLoad -benchmem -count 10
func BenchmarkDriftLoad(b *testing.B) {
	st := testutil.TempStore(b)
	for i, runID := range []string{"base", "next"} {
		spec := testutil.EC2Spec(b, uint64(21+i), 1)
		spec.Config = cloudmodel.DefaultCampaignConfig(24 * 3600)
		storeRun(b, st, runID, spec, store.RunMeta{Encoding: store.EncodingColumnar})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, err := longitudinal.Load(st, "base", "next")
		if err != nil {
			b.Fatal(err)
		}
		if len(runs[1].Cells) != 4 {
			b.Fatalf("loaded %d cells, want 4", len(runs[1].Cells))
		}
	}
}

// BenchmarkDriftLoadTraffic measures the drift read of two stored
// columnar traffic runs of one c5.xlarge under two regimes, three
// repetitions of 0.2 emulated hours carrying the repository's
// two-class request mix, run under two seeds into one store. Each
// iteration is one Load of both runs: every frame's bandwidth column
// and every client's latencies, decoded into the read's scratch, and
// each class's p99 selected from them. Its B/op is gated: decoding
// each cell's latencies into arrays of their own again would allocate
// every request's latency.
//
//	go test ./internal/longitudinal -run '^$' -bench BenchmarkDriftLoadTraffic -benchmem -count 10
func BenchmarkDriftLoadTraffic(b *testing.B) {
	st := testutil.TempStore(b)
	for i, runID := range []string{"base", "next"} {
		spec := testutil.EC2Spec(b, uint64(31+i), 1)
		spec.Repetitions = 3
		spec.Config = cloudmodel.DefaultCampaignConfig(0.2 * 3600)
		spec.Workload = trafficMix()
		storeRun(b, st, runID, spec, store.RunMeta{Encoding: store.EncodingColumnar})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, err := longitudinal.Load(st, "base", "next")
		if err != nil {
			b.Fatal(err)
		}
		if len(runs[1].Cells) != 6 || len(runs[1].Cells[0].Tails) != 2 {
			b.Fatalf("loaded %d cells, the first with %d class tails; want 6 cells with 2", len(runs[1].Cells), len(runs[1].Cells[0].Tails))
		}
	}
}

// trafficMix is the repository's two-class request mix
// (examples/workloads): 2 RPS of 8192 KB, web 0.7 poisson interactive,
// etl 0.3 gamma CV 2 batch.
func trafficMix() *workload.Spec {
	return &workload.Spec{AggregateRPS: 2, RequestKB: 8192, Clients: []workload.Client{
		{ID: "web", RateFraction: 0.7, SLOClass: "interactive", Arrival: workload.Arrival{Process: workload.Poisson}},
		{ID: "etl", RateFraction: 0.3, SLOClass: "batch", Arrival: workload.Arrival{Process: workload.Gamma, CV: 2}},
	}}
}

// storeRun runs spec into a new run of st named runID.
func storeRun(b *testing.B, st *store.Store, runID string, spec fleet.CampaignSpec, meta store.RunMeta) {
	b.Helper()
	run, err := st.CreateWithMeta(runID, spec, meta)
	if err != nil {
		b.Fatal(err)
	}
	spec.Sink = run
	res, err := fleet.Run(spec)
	if err != nil {
		b.Fatal(err)
	}
	if err := res.Err(); err != nil {
		b.Fatal(err)
	}
	if err := run.Close(); err != nil {
		b.Fatal(err)
	}
}
