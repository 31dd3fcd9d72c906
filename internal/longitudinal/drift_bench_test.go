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
		spec.Workload = &workload.Spec{AggregateRPS: 2, RequestKB: 8192, Clients: []workload.Client{
			{ID: "web", RateFraction: 0.7, SLOClass: "interactive", Arrival: workload.Arrival{Process: workload.Poisson}},
			{ID: "etl", RateFraction: 0.3, SLOClass: "batch", Arrival: workload.Arrival{Process: workload.Gamma, CV: 2}},
		}}
		run, err := st.CreateWithMeta(runID, spec, store.RunMeta{})
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
		run, err := st.CreateWithMeta(runID, spec, store.RunMeta{Encoding: store.EncodingColumnar})
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
