package netem

import (
	"math"
	"testing"

	"cloudvar/internal/simrand"
	"cloudvar/internal/stats"
	"cloudvar/internal/tokenbucket"
)

// The reference below is the campaign's per-bin path from before one
// Stream ran a whole cell: RunIperfInto's per-bin body, verbatim but
// for the VNICModel methods it called becoming the ref functions, which
// are those methods as they were, run as a one-bin stream of dt
// seconds, followed by the point arithmetic the campaign applied to
// that one-bin result. TestStreamBinMatchesReference pins Stream.Bin
// to it bit for bit, draw for draw.

// refLatencyMs is VNICModel.LatencyMs as it was, verbatim.
func refLatencyMs(m VNICModel, writeBytes int, rateGbps float64, throttled bool) float64 {
	if rateGbps <= 0 {
		return math.Inf(1)
	}
	pkt := m.EffectivePacketBytes(writeBytes)
	queuedBytes := float64(m.NormalQueuePackets * pkt)
	if throttled {
		queuedBytes = float64(m.DriverQueueBytes)
	}
	queueMs := queuedBytes * 8 / (rateGbps * 1e9) * 1e3
	return m.BaseRTTms + queueMs
}

// refSampleRTTms is VNICModel.SampleRTTms as it was, verbatim.
func refSampleRTTms(m VNICModel, src *simrand.Source, writeBytes int, rateGbps float64, throttled bool) float64 {
	mean := refLatencyMs(m, writeBytes, rateGbps, throttled)
	if math.IsInf(mean, 1) {
		return mean
	}
	if m.RTTJitterFrac <= 0 {
		return mean
	}
	// Lognormal multiplicative jitter with unit median.
	return mean * src.LogNormal(0, m.RTTJitterFrac)
}

// refPacketsForVolume is VNICModel.PacketsForVolume as it was,
// verbatim.
func refPacketsForVolume(m VNICModel, gbit float64, writeBytes int) int {
	pkt := m.EffectivePacketBytes(writeBytes)
	if pkt == 0 || gbit <= 0 {
		return 0
	}
	bytes := gbit * 1e9 / 8
	return int(math.Ceil(bytes / float64(pkt)))
}

// refBin runs one bin of dt seconds into res and returns the point's
// bandwidth (MeanBandwidthGbps) and RTT (stats.Mean, 0 without
// samples).
func refBin(res *IperfResult, shaper Shaper, model VNICModel, cfg IperfConfig, src *simrand.Source, dt float64) (bw, rtt float64) {
	res.Retransmissions = 0
	res.Packets = 0
	res.BandwidthGbps = res.BandwidthGbps[:0]
	res.ThrottledBins = res.ThrottledBins[:0]
	res.RTTms = res.RTTms[:0]
	tr, hasThrottle := shaper.(throttleReporter)

	throttled := hasThrottle && tr.Throttled()
	moved := shaper.Transfer(infDemand, dt)
	rate := moved / dt
	res.BandwidthGbps = append(res.BandwidthGbps, rate)
	res.ThrottledBins = append(res.ThrottledBins, throttled)

	pkts := refPacketsForVolume(model, moved, cfg.WriteBytes)
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
			refSampleRTTms(model, src, cfg.WriteBytes, rate, throttled))
	}

	bw = res.MeanBandwidthGbps()
	rtt = stats.Mean(res.RTTms)
	if len(res.RTTms) == 0 {
		rtt = 0
	}
	return bw, rtt
}

// scriptShaper moves a scripted volume on each Transfer, cycling
// through the script.
type scriptShaper struct {
	gbit []float64
	next int
}

func (s *scriptShaper) Rate(demand float64) float64 { return 0 }
func (s *scriptShaper) Transfer(demand, dt float64) float64 {
	v := s.gbit[s.next%len(s.gbit)]
	s.next++
	return v
}
func (s *scriptShaper) Idle(dt float64)                       {}
func (s *scriptShaper) NextTransition(demand float64) float64 { return math.Inf(1) }

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestStreamBinMatchesReference(t *testing.T) {
	// A small bucket that empties within the first bins; a rest refills
	// it past its re-engage level only every other intermittent cycle.
	bucket := func() Shaper {
		sh, err := NewBucketShaper(tokenbucket.Params{BudgetGbit: 45, RefillGbps: 1, HighGbps: 10, LowGbps: 1, ReengageGbit: 40})
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	// The script's volumes over 10 s bins: a full bin; a zero-rate bin,
	// whose model latency is +Inf and which has no packets; a vanishing
	// one, whose latency overflows to +Inf while it still carries a
	// packet, so its sample must draw nothing; a one-packet bin, fewer
	// packets than samples; a -0 volume; and a NaN one.
	script := func() Shaper {
		return &scriptShaper{gbit: []float64{100, 0, 5e-318, 1e-5, math.Copysign(0, -1), math.NaN()}}
	}
	noJitter := GCEVNIC()
	noJitter.RTTJitterFrac = 0
	cases := []struct {
		name     string
		shaper   func() Shaper
		model    VNICModel
		samples  int
		dt, rest float64
		bins     int
	}{
		{"no-samples", bucket, EC2VNIC(), 0, 1, 0, 20},
		{"scripted-rates", script, EC2VNIC(), 4, 10, 0, 12},
		{"scripted-rates-gce", script, GCEVNIC(), 4, 10, 0, 12},
		{"no-jitter", func() Shaper { return &FixedShaper{RateGbps: 8} }, noJitter, 4, 10, 0, 10},
		{"ec2-throttled-bucket", bucket, EC2VNIC(), 4, 1, 0, 20},
		{"gce-retransmissions", func() Shaper { return &FixedShaper{RateGbps: 8} }, GCEVNIC(), 4, 10, 0, 20},
		{"intermittent", bucket, EC2VNIC(), 4, 10, 30, 20},
	}
	for _, c := range cases {
		cfg := IperfConfig{DurationSec: float64(c.bins) * c.dt, WriteBytes: 131072, BinSec: c.dt, RTTSamplesPerBin: c.samples}
		refShaper, refSrc := c.shaper(), simrand.New(7)
		var ref IperfResult
		shaper, src := c.shaper(), simrand.New(7)
		stream, err := NewStream(shaper, c.model, cfg, src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var rtt []float64
		var throttled, retrans, infSamples, short int
		for bin := 0; bin < c.bins; bin++ {
			wantBW, wantRTT := refBin(&ref, refShaper, c.model, cfg, refSrc, c.dt)
			var b StreamBin
			b, rtt = stream.Bin(c.dt, rtt[:0])
			// The point arithmetic of RunCampaignObserved.
			gotBW, gotRTT := 0+b.Gbps, 0.0
			if len(rtt) > 0 {
				gotRTT = stats.Mean(rtt)
			}
			switch {
			case !sameBits(b.Gbps, ref.BandwidthGbps[0]) || !sameBits(gotBW, wantBW):
				t.Fatalf("%s bin %d: rate %v / bandwidth %v, reference %v / %v", c.name, bin, b.Gbps, gotBW, ref.BandwidthGbps[0], wantBW)
			case b.Throttled != ref.ThrottledBins[0] || b.Packets != ref.Packets || b.Retransmissions != ref.Retransmissions:
				t.Fatalf("%s bin %d: throttled %v, %d packets, %d retransmissions; reference %v, %d, %d", c.name, bin, b.Throttled, b.Packets, b.Retransmissions, ref.ThrottledBins[0], ref.Packets, ref.Retransmissions)
			case len(rtt) != len(ref.RTTms):
				t.Fatalf("%s bin %d: %d RTT samples, reference %d", c.name, bin, len(rtt), len(ref.RTTms))
			case !sameBits(gotRTT, wantRTT):
				t.Fatalf("%s bin %d: mean RTT %v, reference %v", c.name, bin, gotRTT, wantRTT)
			}
			for i := range rtt {
				if !sameBits(rtt[i], ref.RTTms[i]) {
					t.Fatalf("%s bin %d: RTT sample %d is %v, reference %v", c.name, bin, i, rtt[i], ref.RTTms[i])
				}
				if math.IsInf(rtt[i], 1) {
					infSamples++
				}
			}
			// The next draw pins how many draws the bin took.
			if got, want := src.Uint64(), refSrc.Uint64(); got != want {
				t.Fatalf("%s bin %d: next draw %#x, reference %#x", c.name, bin, got, want)
			}
			if c.rest > 0 {
				shaper.Idle(c.rest)
				refShaper.Idle(c.rest)
			}
			if b.Throttled {
				throttled++
			}
			if b.Packets > 0 && b.Packets < c.samples {
				short++
			}
			retrans += b.Retransmissions
		}
		// Each case must reach the branch it is named for.
		switch c.name {
		case "ec2-throttled-bucket", "intermittent":
			if throttled == 0 || throttled == c.bins {
				t.Errorf("%s: %d of %d bins throttled, want some", c.name, throttled, c.bins)
			}
		case "gce-retransmissions":
			if retrans == 0 {
				t.Errorf("%s: no retransmissions", c.name)
			}
		case "scripted-rates", "scripted-rates-gce":
			if infSamples == 0 || short == 0 {
				t.Errorf("%s: %d samples at an infinite model latency and %d bins with fewer packets than samples, want some of each", c.name, infSamples, short)
			}
		}
	}
}
