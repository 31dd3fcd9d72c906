package core

import (
	"testing"

	"cloudvar/internal/cloudmodel"
	"cloudvar/internal/simrand"
	"cloudvar/internal/trace"
)

func TestDiscretizeOnHPCCloudCampaign(t *testing.T) {
	p, err := cloudmodel.HPCCloudProfile(8)
	if err != nil {
		t.Fatal(err)
	}
	src := simrand.New(33)
	s, err := cloudmodel.RunCampaign(p, trace.FullSpeed,
		cloudmodel.DefaultCampaignConfig(4*3600), src)
	if err != nil {
		t.Fatal(err)
	}
	// 15-minute windows over 4 hours: 16 window medians.
	da, err := Discretize(s, 900, 0.95, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(da.Medians) != 16 {
		t.Fatalf("got %d windows, want 16", len(da.Medians))
	}
	// HPCCloud noise is stochastic: window medians should converge
	// quickly to a 5% bound.
	if da.Confirm.ConvergedAt <= 0 {
		t.Errorf("stochastic cloud did not converge: %+v", da.Confirm.FinalPoint())
	}
	if needed := da.Confirm.RequiredRepetitions(); needed <= 0 || needed > 16 {
		t.Errorf("windows needed = %d", needed)
	}
}

func TestDiscretizeErrors(t *testing.T) {
	empty := trace.NewSeries("e", 10)
	if _, err := Discretize(empty, 900, 0.95, 0.05); err == nil {
		t.Error("empty series should error")
	}
	s := trace.NewSeries("one", 10)
	_ = s.Append(trace.Point{TimeSec: 0, BandwidthGbps: 5})
	if _, err := Discretize(s, 900, 0.95, 0.05); err == nil {
		t.Error("single window should error")
	}
	if _, err := Discretize(s, 0, 0.95, 0.05); err == nil {
		t.Error("zero window should error")
	}
}

func TestDiscretizeSmoothsNoise(t *testing.T) {
	// Raw 10 s samples of a noisy series have a much wider spread
	// than 10-minute window medians — the smoothing claim of F5.4.
	src := simrand.New(55)
	s := trace.NewSeries("noisy", 10)
	for i := 0; i < 1000; i++ {
		_ = s.Append(trace.Point{
			TimeSec:       float64(i) * 10,
			BandwidthGbps: 8 + src.Normal(0, 1.5),
		})
	}
	da, err := Discretize(s, 600, 0.95, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	rawSummary := s.Summary()
	windowSpread := maxF(da.Medians) - minF(da.Medians)
	rawSpread := rawSummary.P99 - rawSummary.P01
	if windowSpread > rawSpread/2 {
		t.Errorf("window medians spread %.2f not much tighter than raw %.2f",
			windowSpread, rawSpread)
	}
}

func minF(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func maxF(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
