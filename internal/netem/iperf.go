package netem

import (
	"fmt"
	"math"

	"cloudvar/internal/simrand"
	"cloudvar/internal/stats"
)

// throttleReporter is implemented by shapers that can be in a
// throttled regime (the token bucket). Other shapers are never
// "throttled" — their variability is stochastic, not regime-based.
type throttleReporter interface {
	Throttled() bool
}

// Throttled reports whether the bucket is currently in the low-rate
// regime.
func (s *BucketShaper) Throttled() bool { return s.Bucket.Throttled() }

// IperfResult is the outcome of one emulated iperf run: the
// fine-grained bandwidth series, the per-packet RTT samples, and the
// retransmission count — the trio the paper's Figures 7, 8 and 12
// report for 10-second TCP streams.
type IperfResult struct {
	// BinSec is the bandwidth summarisation interval.
	BinSec float64
	// BandwidthGbps has one entry per bin.
	BandwidthGbps []float64
	// ThrottledBins marks bins during which the shaper was in its
	// capped regime.
	ThrottledBins []bool
	// RTTms holds sampled per-packet round-trip times.
	RTTms []float64
	// Retransmissions is the total retransmitted device packets.
	Retransmissions int
	// Packets is the total device packets sent.
	Packets int
}

// MeanBandwidthGbps returns the run's average achieved bandwidth.
func (r IperfResult) MeanBandwidthGbps() float64 {
	if len(r.BandwidthGbps) == 0 {
		return 0
	}
	sum := 0.0
	for _, b := range r.BandwidthGbps {
		sum += b
	}
	return sum / float64(len(r.BandwidthGbps))
}

// IperfConfig parameterises RunIperf.
type IperfConfig struct {
	// DurationSec is the stream length (the paper uses 10 s streams
	// for latency capture and week-long campaigns for bandwidth).
	DurationSec float64
	// WriteBytes is the application's socket write size; it
	// determines the device packet size (Figure 12). iperf's default
	// is 128 KiB.
	WriteBytes int
	// BinSec is the bandwidth summarisation interval (paper: 10 s for
	// campaigns; use finer bins for the 10 s latency runs).
	BinSec float64
	// RTTSamplesPerBin caps how many per-packet RTTs are recorded per
	// bin (sampling, to keep memory bounded like tcpdump snaplen).
	RTTSamplesPerBin int
}

// Validate checks the configuration.
func (c IperfConfig) Validate() error {
	switch {
	case c.DurationSec <= 0:
		return fmt.Errorf("netem: iperf duration must be positive")
	case c.WriteBytes <= 0:
		return fmt.Errorf("netem: iperf write size must be positive")
	case c.BinSec <= 0:
		return fmt.Errorf("netem: iperf bin must be positive")
	case c.RTTSamplesPerBin < 0:
		return fmt.Errorf("netem: negative RTT sample cap")
	}
	return nil
}

// RunIperf emulates a single-stream TCP bulk transfer through the
// given egress shaper and vNIC model, mimicking the paper's
// measurement tooling (iperf for load, tcpdump+wireshark for
// application-observed RTT).
func RunIperf(shaper Shaper, model VNICModel, cfg IperfConfig, src *simrand.Source) (IperfResult, error) {
	var res IperfResult
	err := RunIperfInto(&res, shaper, model, cfg, src)
	return res, err
}

// RunIperfInto is RunIperf writing into a caller-held result whose
// slices are truncated and reused — the allocation-free path for
// campaign loops that run one emulated stream per bin against the
// same scratch. Buffers are pre-sized from DurationSec/BinSec on
// first use. On error the result holds no meaningful data.
func RunIperfInto(res *IperfResult, shaper Shaper, model VNICModel, cfg IperfConfig, src *simrand.Source) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := model.Validate(); err != nil {
		return err
	}
	bins := int(math.Ceil(cfg.DurationSec / cfg.BinSec))
	res.BinSec = cfg.BinSec
	res.Retransmissions = 0
	res.Packets = 0
	res.BandwidthGbps = sliceWithCap(res.BandwidthGbps, bins)
	res.ThrottledBins = sliceWithCap(res.ThrottledBins, bins)
	res.RTTms = sliceWithCap(res.RTTms, bins*cfg.RTTSamplesPerBin)

	tr, hasThrottle := shaper.(throttleReporter)
	for bin := 0; bin < bins; bin++ {
		dt := math.Min(cfg.BinSec, cfg.DurationSec-float64(bin)*cfg.BinSec)
		throttled := hasThrottle && tr.Throttled()
		moved := shaper.Transfer(infDemand, dt)
		rate := moved / dt
		res.BandwidthGbps = append(res.BandwidthGbps, rate)
		res.ThrottledBins = append(res.ThrottledBins, throttled)

		pkts := model.PacketsForVolume(moved, cfg.WriteBytes)
		res.Packets += pkts

		// Retransmissions: binomial via normal approximation, exact
		// for the zero-probability case.
		p := model.RetransProb(cfg.WriteBytes)
		if p > 0 && pkts > 0 {
			mean := float64(pkts) * p
			sd := math.Sqrt(float64(pkts) * p * (1 - p))
			draw := src.Normal(mean, sd)
			if draw < 0 {
				draw = 0
			}
			res.Retransmissions += int(math.Round(draw))
		}

		// RTT samples at the achieved rate.
		nSamples := cfg.RTTSamplesPerBin
		if nSamples > pkts {
			nSamples = pkts
		}
		for i := 0; i < nSamples; i++ {
			res.RTTms = append(res.RTTms,
				model.SampleRTTms(src, cfg.WriteBytes, rate, throttled))
		}
	}
	return nil
}

// sliceWithCap returns s truncated to length zero with capacity at
// least n, reusing the backing array when it is big enough.
func sliceWithCap[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// WriteSizeSweepPoint is one row of Figure 12: the latency and
// retransmission behaviour at a given application write size.
type WriteSizeSweepPoint struct {
	WriteBytes      int
	MeanRTTms       float64
	P99RTTms        float64
	BandwidthGbps   float64
	Retransmissions int
	Packets         int
}

// WriteSizeSweep runs RunIperf across a set of write sizes against
// fresh shapers produced by newShaper, regenerating Figure 12's
// x-axis.
func WriteSizeSweep(newShaper func() Shaper, model VNICModel, writeSizes []int, cfg IperfConfig, src *simrand.Source) ([]WriteSizeSweepPoint, error) {
	points := make([]WriteSizeSweepPoint, 0, len(writeSizes))
	for _, ws := range writeSizes {
		c := cfg
		c.WriteBytes = ws
		res, err := RunIperf(newShaper(), model, c, src)
		if err != nil {
			return nil, fmt.Errorf("netem: sweep at write=%d: %w", ws, err)
		}
		pt := WriteSizeSweepPoint{
			WriteBytes:      ws,
			BandwidthGbps:   res.MeanBandwidthGbps(),
			Retransmissions: res.Retransmissions,
			Packets:         res.Packets,
		}
		if len(res.RTTms) > 0 {
			sum := 0.0
			for _, v := range res.RTTms {
				sum += v
			}
			pt.MeanRTTms = sum / float64(len(res.RTTms))
			pt.P99RTTms = stats.Quantile(res.RTTms, 0.99)
		}
		points = append(points, pt)
	}
	return points, nil
}
