package cloudmodel

import (
	"fmt"
	"math"

	"cloudvar/internal/netem"
	"cloudvar/internal/simrand"
	"cloudvar/internal/stats"
	"cloudvar/internal/trace"
)

// CampaignConfig parameterises a Section 3 measurement campaign: one
// VM pair, one access regime, continuous measurement with fixed
// summarisation windows.
type CampaignConfig struct {
	// DurationSec is the campaign length (the paper ran for a week
	// per pair: 604800 s).
	DurationSec float64
	// BinSec is the summarisation window for continuous regimes
	// (paper: 10 s). Intermittent regimes summarise per send burst.
	BinSec float64
	// WriteBytes is the sender's socket write size (iperf default
	// 128 KiB).
	WriteBytes int
	// RTTSamplesPerBin bounds RTT sampling per window.
	RTTSamplesPerBin int
}

// maxCellPoints bounds DurationSec/BinSec, the points of one cell's
// series. The series is allocated up front at 40 bytes a point, so the
// bound keeps a cell under 160 MiB; at the paper's 10 s bins it is 485
// days, 69 times the week the paper measured each pair.
const maxCellPoints = 1 << 22

// DefaultCampaignConfig returns the paper's settings with a duration
// chosen by the caller.
func DefaultCampaignConfig(durationSec float64) CampaignConfig {
	return CampaignConfig{
		DurationSec:      durationSec,
		BinSec:           10,
		WriteBytes:       131072,
		RTTSamplesPerBin: 4,
	}
}

// Validate checks the configuration.
func (c CampaignConfig) Validate() error {
	switch {
	case !(c.DurationSec > 0) || math.IsInf(c.DurationSec, 1):
		return fmt.Errorf("cloudmodel: campaign duration %g s must be positive and finite", c.DurationSec)
	case !(c.BinSec > 0) || math.IsInf(c.BinSec, 1):
		return fmt.Errorf("cloudmodel: bin %g s must be positive and finite", c.BinSec)
	case c.WriteBytes <= 0:
		return fmt.Errorf("cloudmodel: write size must be positive")
	case c.RTTSamplesPerBin < 0:
		return fmt.Errorf("cloudmodel: negative RTT sample bound")
	case c.DurationSec/c.BinSec > maxCellPoints:
		return fmt.Errorf("cloudmodel: campaign duration %g s in %g s bins is above the bound of %d points per cell",
			c.DurationSec, c.BinSec, maxCellPoints)
	}
	return nil
}

// CampaignScratch is a reusable per-worker arena for RunCampaign's
// transient buffers (one bin's RTT samples). Reusing one scratch
// across repetitions and cells eliminates the per-bin allocations of
// a campaign loop without affecting output: every value the returned
// series carries is freshly computed from the shaper, the vNIC model
// and the cell's own random substream — the scratch only lends
// memory, never state. The zero value is ready to use.
type CampaignScratch struct {
	rtt []float64
}

// RunCampaign emulates a measurement campaign of the given regime
// against a fresh VM pair from the profile, producing the 10-second
// (or per-burst) summarised series behind Figures 4, 5, 6, 9 and 10.
func RunCampaign(p Profile, regime trace.Regime, cfg CampaignConfig, src *simrand.Source) (*trace.Series, error) {
	return RunCampaignObserved(p, regime, cfg, src, nil, nil)
}

// RunCampaignObserved is RunCampaign with an explicit scratch arena
// (nil for a private one) and a streaming hook. The returned series is
// always freshly allocated — only burst-transient buffers live in the
// scratch — and is bit-identical for equal inputs regardless of how
// the scratch was previously used. observe (when non-nil) sees every
// bin point in append order, at the moment it is produced. It is the
// attachment point for bounded-memory summarisation (internal/sketch):
// a streaming consumer absorbs each point as the campaign runs instead
// of re-walking the series after the fact, so a future series-free
// mode needs no new measurement path. The observer must not retain the
// point.
func RunCampaignObserved(p Profile, regime trace.Regime, cfg CampaignConfig, src *simrand.Source, scratch *CampaignScratch, observe func(trace.Point)) (*trace.Series, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := regime.Validate(); err != nil {
		return nil, err
	}
	if scratch == nil {
		scratch = &CampaignScratch{}
	}
	shaper := p.NewShaper(src)
	// One stream runs the whole cell: the rests of an intermittent
	// regime idle its shaper between bursts.
	stream, err := netem.NewStream(shaper, p.VNIC, netem.IperfConfig{
		DurationSec:      cfg.DurationSec,
		WriteBytes:       cfg.WriteBytes,
		BinSec:           cfg.BinSec,
		RTTSamplesPerBin: cfg.RTTSamplesPerBin,
	}, src)
	if err != nil {
		return nil, fmt.Errorf("cloudmodel: campaign stream: %w", err)
	}

	label := fmt.Sprintf("%s/%s/%s", p.Cloud, p.Instance, regime.Name)
	interval := cfg.BinSec
	if !regime.Continuous() {
		interval = regime.SendSec
	}
	series := trace.NewSeries(label, interval)
	// Size the bin series up front: one point per bin for continuous
	// regimes, one per send burst for intermittent ones.
	perPoint := cfg.BinSec
	if !regime.Continuous() {
		perPoint = regime.SendSec + regime.RestSec
	}
	series.Points = make([]trace.Point, 0, int(math.Ceil(cfg.DurationSec/perPoint)))

	now := 0.0
	for now < cfg.DurationSec-1e-9 {
		var sendSec float64
		if regime.Continuous() {
			sendSec = math.Min(cfg.BinSec, cfg.DurationSec-now)
		} else {
			sendSec = math.Min(regime.SendSec, cfg.DurationSec-now)
		}

		b, rtt := stream.Bin(sendSec, scratch.rtt[:0])
		scratch.rtt = rtt
		// A point is the mean over its one bin: the sum from 0 keeps
		// the arithmetic of a mean, which reports a -0 rate as +0.
		bw := 0 + b.Gbps
		pt := trace.Point{
			TimeSec:         now,
			BandwidthGbps:   bw,
			Retransmissions: b.Retransmissions,
			CPUFrac:         cpuModel(bw, p.LineRateGbps, src),
		}
		if len(rtt) > 0 {
			pt.RTTms = stats.Mean(rtt)
		}
		if err := series.Append(pt); err != nil {
			return nil, err
		}
		if observe != nil {
			observe(pt)
		}

		now += sendSec
		if !regime.Continuous() {
			rest := math.Min(regime.RestSec, cfg.DurationSec-now)
			if rest > 0 {
				shaper.Idle(rest)
				now += rest
			}
		}
	}
	return series, nil
}

// cpuModel approximates sender CPU load: proportional to achieved
// bandwidth (TCP processing dominates) plus a small noise floor.
func cpuModel(bwGbps, lineRateGbps float64, src *simrand.Source) float64 {
	if lineRateGbps <= 0 {
		return 0
	}
	frac := 0.08 + 0.8*bwGbps/lineRateGbps + src.Normal(0, 0.02)
	return math.Max(0, math.Min(1, frac))
}

// RegimeComparison is the campaign output for all three regimes on
// one cloud — the unit Figures 5, 6, 9 and 10 are drawn from.
type RegimeComparison struct {
	Profile Profile
	// Series maps regime name to its measurement series.
	Series map[string]*trace.Series
}

// RunAllRegimes measures every standard regime, in order, against
// fresh VM pairs from the profile (fresh pair per regime, as the paper
// did). Each regime draws from its own named substream of src, and the
// regimes share one scratch arena, which never leaks into results.
func RunAllRegimes(p Profile, cfg CampaignConfig, src *simrand.Source) (RegimeComparison, error) {
	out := RegimeComparison{Profile: p, Series: make(map[string]*trace.Series)}
	var scratch CampaignScratch
	for _, regime := range trace.Regimes() {
		series, err := RunCampaignObserved(p, regime, cfg, src.Substream("campaign/"+regime.Name), &scratch, nil)
		if err != nil {
			return out, fmt.Errorf("cloudmodel: regime %s: %w", regime.Name, err)
		}
		out.Series[regime.Name] = series
	}
	return out, nil
}
