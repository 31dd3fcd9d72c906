package cloudmodel_test

import (
	"testing"

	"cloudvar/internal/cloudmodel"
	"cloudvar/internal/fleet"
	"cloudvar/internal/scenario"
	"cloudvar/internal/simrand"
	"cloudvar/internal/testutil"
	"cloudvar/internal/trace"
	"cloudvar/internal/workload"
)

// BenchmarkRunWorkload measures request serving for one campaign cell:
// the repository's two-class traffic mix (examples/workloads: 2 RPS of
// 8192 KB, web 0.7 poisson interactive, etl 0.3 gamma CV 2 batch)
// replayed over one 0.2 h full-speed c5.xlarge cell under the
// noisy-neighbor scenario. The cell's series is measured once; each
// iteration generates the client streams, merges them and serves them
// through one arena reused across iterations, as a fleet worker runs
// every traffic-carrying cell of a campaign.
//
//	go test ./internal/cloudmodel -run '^$' -bench BenchmarkRunWorkload -benchmem -count 10
func BenchmarkRunWorkload(b *testing.B) {
	spec := testutil.EC2Spec(b, 42, 1)
	spec.Regimes = []trace.Regime{trace.FullSpeed}
	spec.Repetitions = 1
	spec.Config = cloudmodel.DefaultCampaignConfig(0.2 * 3600)
	sc, err := scenario.ByName("noisy-neighbor")
	if err != nil {
		b.Fatal(err)
	}
	if spec, err = sc.Expand(spec); err != nil {
		b.Fatal(err)
	}
	cell := spec.Cells()[0]
	series, err := cloudmodel.RunCampaign(cell.Profile, cell.Regime, spec.Config, fleet.CellSource(spec.Seed, cell))
	if err != nil {
		b.Fatal(err)
	}
	mix := workload.Spec{AggregateRPS: 2, RequestKB: 8192, Clients: []workload.Client{
		{ID: "web", RateFraction: 0.7, SLOClass: "interactive", Arrival: workload.Arrival{Process: workload.Poisson}},
		{ID: "etl", RateFraction: 0.3, SLOClass: "batch", Arrival: workload.Arrival{Process: workload.Gamma, CV: 2}},
	}}
	substream := func(name string) *simrand.Source { return fleet.WorkloadSource(spec.Seed, cell, name) }
	var scratch cloudmodel.WorkloadScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := cloudmodel.RunWorkloadScratch(mix, series, cell.Profile, spec.Config, substream, &scratch)
		if err != nil {
			b.Fatal(err)
		}
		if m.Requests() == 0 {
			b.Fatal("no requests served")
		}
	}
}

// BenchmarkRunCampaign measures the simulation step of one campaign
// cell: a 24 h full-speed c5.xlarge cell, 8,640 bins of 10 s with four
// RTT samples each, through RunCampaignObserved with a scratch reused
// across cells, as a fleet worker runs it. Its token bucket throttles
// within the day, so both regimes of the EC2 model run. At a few ms
// per op it is long enough for a CPU profile to attribute:
//
//	go test ./internal/cloudmodel -run '^$' -bench BenchmarkRunCampaign -benchmem -cpuprofile cpu.out
func BenchmarkRunCampaign(b *testing.B) {
	p, err := cloudmodel.EC2Profile("c5.xlarge")
	if err != nil {
		b.Fatal(err)
	}
	cfg := cloudmodel.DefaultCampaignConfig(24 * 3600)
	var scratch cloudmodel.CampaignScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, err := cloudmodel.RunCampaignObserved(p, trace.FullSpeed, cfg, simrand.New(1), &scratch, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(series.Points) != 8640 {
			b.Fatalf("%d bins, want 8640", len(series.Points))
		}
	}
}
