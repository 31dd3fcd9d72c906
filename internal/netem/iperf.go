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

// maxRunSamples bounds a run's bins × RTTSamplesPerBin, or its bins
// when it samples no RTT. RunIperf holds a run's RTT samples in one
// slice of 8-byte floats, so the bound keeps that slice under 128 MiB;
// at a campaign's 4 samples per 10 s bin it is 485 days of stream.
const maxRunSamples = 1 << 24

// Validate checks the configuration.
func (c IperfConfig) Validate() error {
	switch {
	case !(c.DurationSec > 0) || math.IsInf(c.DurationSec, 1):
		return fmt.Errorf("netem: iperf duration %g s must be positive and finite", c.DurationSec)
	case c.WriteBytes <= 0:
		return fmt.Errorf("netem: iperf write size must be positive")
	case !(c.BinSec > 0) || math.IsInf(c.BinSec, 1):
		return fmt.Errorf("netem: iperf bin %g s must be positive and finite", c.BinSec)
	case c.RTTSamplesPerBin < 0:
		return fmt.Errorf("netem: negative RTT sample cap")
	case math.Ceil(c.DurationSec/c.BinSec)*float64(max(c.RTTSamplesPerBin, 1)) > maxRunSamples:
		return fmt.Errorf("netem: iperf duration %g s in %g s bins of %d RTT samples is above the bound of %d samples per run",
			c.DurationSec, c.BinSec, c.RTTSamplesPerBin, maxRunSamples)
	}
	return nil
}

// RunIperf emulates a single-stream TCP bulk transfer through the
// given egress shaper and vNIC model, mimicking the paper's
// measurement tooling (iperf for load, tcpdump+wireshark for
// application-observed RTT): one Stream run bin by bin for
// cfg.DurationSec.
func RunIperf(shaper Shaper, model VNICModel, cfg IperfConfig, src *simrand.Source) (IperfResult, error) {
	s, err := NewStream(shaper, model, cfg, src)
	if err != nil {
		return IperfResult{}, err
	}
	bins := int(math.Ceil(cfg.DurationSec / cfg.BinSec))
	res := IperfResult{
		BinSec:        cfg.BinSec,
		BandwidthGbps: make([]float64, 0, bins),
		ThrottledBins: make([]bool, 0, bins),
		RTTms:         make([]float64, 0, bins*cfg.RTTSamplesPerBin),
	}
	for bin := 0; bin < bins; bin++ {
		dt := math.Min(cfg.BinSec, cfg.DurationSec-float64(bin)*cfg.BinSec)
		var b StreamBin
		b, res.RTTms = s.Bin(dt, res.RTTms)
		res.BandwidthGbps = append(res.BandwidthGbps, b.Gbps)
		res.ThrottledBins = append(res.ThrottledBins, b.Throttled)
		res.Packets += b.Packets
		res.Retransmissions += b.Retransmissions
	}
	return res, nil
}

// Stream is one emulated iperf stream: a saturating flow through a
// shaper and a vNIC model, advanced one summarisation bin at a time.
// Its configuration is validated, and its write-size constants and
// throttle probe worked out, once when it is made; Bin is the one
// per-bin step that RunIperf and the campaign loop both run.
type Stream struct {
	shaper Shaper
	// throttle is the shaper's throttle probe, nil for shapers that
	// are never throttled.
	throttle throttleReporter
	src      *simrand.Source
	samples  int
	// The model's RTT constants and the write size's: the device
	// packet, the per-packet retransmission probability, and the device
	// queue unthrottled and throttled.
	baseRTTms, jitter            float64
	pktBytes                     int
	retransProb                  float64
	queuedBytes, queuedThrottled float64
}

// NewStream validates cfg and the model and returns a stream that
// draws from src. Only cfg's write size and RTT sample cap shape the
// bins; the caller chooses each bin's length.
func NewStream(shaper Shaper, model VNICModel, cfg IperfConfig, src *simrand.Source) (*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	tr, _ := shaper.(throttleReporter)
	return &Stream{
		shaper:          shaper,
		throttle:        tr,
		src:             src,
		samples:         cfg.RTTSamplesPerBin,
		baseRTTms:       model.BaseRTTms,
		jitter:          model.RTTJitterFrac,
		pktBytes:        model.EffectivePacketBytes(cfg.WriteBytes),
		retransProb:     model.RetransProb(cfg.WriteBytes),
		queuedBytes:     model.queuedBytes(cfg.WriteBytes, false),
		queuedThrottled: model.queuedBytes(cfg.WriteBytes, true),
	}, nil
}

// StreamBin is one bin of a Stream.
type StreamBin struct {
	// Gbps is the rate the bin achieved: the volume moved over the
	// bin's length.
	Gbps float64
	// Throttled reports that the shaper was in its capped regime when
	// the bin began.
	Throttled bool
	// Packets and Retransmissions count the bin's device packets.
	Packets         int
	Retransmissions int
}

// Bin runs the stream for one bin of dt > 0 seconds. It appends the
// bin's per-packet RTT samples, at most the configured cap and never
// more than the bin's packets, to rtt and returns the bin with the
// extended slice. Every sample jitters around one model latency at
// the bin's achieved rate.
func (s *Stream) Bin(dt float64, rtt []float64) (StreamBin, []float64) {
	var b StreamBin
	b.Throttled = s.throttle != nil && s.throttle.Throttled()
	moved := s.shaper.Transfer(infDemand, dt)
	b.Gbps = moved / dt
	b.Packets = packetsFor(moved, s.pktBytes)

	// Retransmissions: binomial via normal approximation, exact for
	// the zero-probability case.
	if p := s.retransProb; p > 0 && b.Packets > 0 {
		mean := float64(b.Packets) * p
		sd := math.Sqrt(float64(b.Packets) * p * (1 - p))
		draw := s.src.Normal(mean, sd)
		if draw < 0 {
			draw = 0
		}
		b.Retransmissions = int(math.Round(draw))
	}

	if n := min(s.samples, b.Packets); n > 0 {
		queued := s.queuedBytes
		if b.Throttled {
			queued = s.queuedThrottled
		}
		mean := queueLatencyMs(s.baseRTTms, queued, b.Gbps)
		for range n {
			rtt = append(rtt, jitterRTT(s.src, mean, s.jitter))
		}
	}
	return b, rtt
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
