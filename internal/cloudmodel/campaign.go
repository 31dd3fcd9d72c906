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
	case c.DurationSec <= 0:
		return fmt.Errorf("cloudmodel: campaign duration must be positive")
	case c.BinSec <= 0:
		return fmt.Errorf("cloudmodel: bin must be positive")
	case c.WriteBytes <= 0:
		return fmt.Errorf("cloudmodel: write size must be positive")
	case c.RTTSamplesPerBin < 0:
		return fmt.Errorf("cloudmodel: negative RTT sample bound")
	}
	return nil
}

// CampaignScratch is a reusable per-worker arena for RunCampaign's
// transient buffers (the per-burst iperf result). Reusing one scratch
// across repetitions and cells eliminates the per-bin allocations of
// a campaign loop without affecting output: every value the returned
// series carries is freshly computed from the shaper, the vNIC model
// and the cell's own random substream — the scratch only lends
// memory, never state. The zero value is ready to use.
type CampaignScratch struct {
	iperf netem.IperfResult
}

// RunCampaign emulates a measurement campaign of the given regime
// against a fresh VM pair from the profile, producing the 10-second
// (or per-burst) summarised series behind Figures 4, 5, 6, 9 and 10.
func RunCampaign(p Profile, regime trace.Regime, cfg CampaignConfig, src *simrand.Source) (*trace.Series, error) {
	return RunCampaignScratch(p, regime, cfg, src, nil)
}

// RunCampaignScratch is RunCampaign with an explicit scratch arena
// (nil for a private one). The returned series is always freshly
// allocated — only burst-transient buffers live in the scratch — and
// is bit-identical for equal inputs regardless of how the scratch was
// previously used.
func RunCampaignScratch(p Profile, regime trace.Regime, cfg CampaignConfig, src *simrand.Source, scratch *CampaignScratch) (*trace.Series, error) {
	return RunCampaignObserved(p, regime, cfg, src, scratch, nil)
}

// RunCampaignObserved is RunCampaignScratch with a streaming hook:
// observe (when non-nil) sees every bin point in append order, at the
// moment it is produced. It is the attachment point for bounded-memory
// summarisation (internal/sketch): a streaming consumer absorbs each
// point as the campaign runs instead of re-walking the series after
// the fact, so a future series-free mode needs no new measurement
// path. The observer must not retain the point.
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

		res := &scratch.iperf
		err := netem.RunIperfInto(res, shaper, p.VNIC, netem.IperfConfig{
			DurationSec:      sendSec,
			WriteBytes:       cfg.WriteBytes,
			BinSec:           sendSec,
			RTTSamplesPerBin: cfg.RTTSamplesPerBin,
		}, src)
		if err != nil {
			return nil, fmt.Errorf("cloudmodel: campaign burst at t=%g: %w", now, err)
		}

		bw := res.MeanBandwidthGbps()
		pt := trace.Point{
			TimeSec:         now,
			BandwidthGbps:   bw,
			Retransmissions: res.Retransmissions,
			RTTms:           stats.Mean(res.RTTms),
			CPUFrac:         cpuModel(bw, p.LineRateGbps, src),
		}
		if len(res.RTTms) == 0 {
			pt.RTTms = 0
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
		series, err := RunCampaignScratch(p, regime, cfg, src.Substream("campaign/"+regime.Name), &scratch)
		if err != nil {
			return out, fmt.Errorf("cloudmodel: regime %s: %w", regime.Name, err)
		}
		out.Series[regime.Name] = series
	}
	return out, nil
}
