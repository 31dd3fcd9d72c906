package netem

import (
	"math"
	"strings"
	"testing"

	"cloudvar/internal/simrand"
	"cloudvar/internal/tokenbucket"
)

func TestVNICValidate(t *testing.T) {
	if err := EC2VNIC().Validate(); err != nil {
		t.Errorf("EC2 model invalid: %v", err)
	}
	if err := GCEVNIC().Validate(); err != nil {
		t.Errorf("GCE model invalid: %v", err)
	}
	bad := EC2VNIC()
	bad.MTUBytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero MTU should fail validation")
	}
	bad = GCEVNIC()
	bad.TSOMaxBytes = 100 // below MTU
	if err := bad.Validate(); err == nil {
		t.Error("TSO below MTU should fail validation")
	}
}

func TestEffectivePacketBytes(t *testing.T) {
	ec2 := EC2VNIC()
	gce := GCEVNIC()
	cases := []struct {
		model VNICModel
		write int
		want  int
	}{
		{ec2, 1024, 1024},
		{ec2, 9000, 9000},
		{ec2, 131072, 9000},  // capped at jumbo MTU
		{gce, 9000, 9000},    // TSO passes it through
		{gce, 131072, 65536}, // capped at TSO max
		{ec2, 0, 0},
	}
	for _, c := range cases {
		if got := c.model.EffectivePacketBytes(c.write); got != c.want {
			t.Errorf("%s: EffectivePacketBytes(%d) = %d, want %d",
				c.model.Name, c.write, got, c.want)
		}
	}
}

// TestLatencyShapeFigure12 checks the paper's key Figure 12 contrast:
// on EC2 latency is flat in write size (packets cap at 9 KB), while on
// GCE latency grows substantially as writes grow toward 64 KB.
func TestLatencyShapeFigure12(t *testing.T) {
	ec2 := EC2VNIC()
	gce := GCEVNIC()

	ec2Small := ec2.LatencyMs(1024, 10, false)
	ec2Large := ec2.LatencyMs(131072, 10, false)
	if ec2Large > ec2Small*3 {
		t.Errorf("EC2 latency should be nearly flat: %g -> %g", ec2Small, ec2Large)
	}
	if ec2Large >= 1.0 {
		t.Errorf("EC2 unthrottled latency %g ms should be sub-millisecond", ec2Large)
	}

	gceSmall := gce.LatencyMs(9000, 8, false)
	gceLarge := gce.LatencyMs(131072, 8, false)
	if gceLarge < 2*gceSmall {
		t.Errorf("GCE latency should grow with write size: %g -> %g", gceSmall, gceLarge)
	}
	// Paper: ~2.3 ms at 9 KB writes, up to ~10 ms at the default.
	if gceSmall < 1.5 || gceSmall > 3.5 {
		t.Errorf("GCE 9K-write latency %g ms outside the paper's ~2.3 ms ballpark", gceSmall)
	}
	if gceLarge < 4 || gceLarge > 12 {
		t.Errorf("GCE 128K-write latency %g ms outside the paper's up-to-10 ms ballpark", gceLarge)
	}
}

// TestThrottledLatencyTwoOrders checks Figure 7's finding: when the
// EC2 token bucket engages, RTT rises by about two orders of
// magnitude (queues build in the virtual device driver).
func TestThrottledLatencyTwoOrders(t *testing.T) {
	ec2 := EC2VNIC()
	normal := ec2.LatencyMs(131072, 10, false)
	throttled := ec2.LatencyMs(131072, 1, true)
	ratio := throttled / normal
	if ratio < 30 || ratio > 300 {
		t.Errorf("throttled/normal latency ratio = %g, want ~two orders of magnitude", ratio)
	}
	if throttled < 10 || throttled > 40 {
		t.Errorf("throttled latency %g ms outside Figure 7's ~20 ms range", throttled)
	}
}

func TestLatencyZeroRate(t *testing.T) {
	if !math.IsInf(EC2VNIC().LatencyMs(1024, 0, false), 1) {
		t.Error("zero rate should give infinite latency")
	}
}

func TestRetransProb(t *testing.T) {
	gce := GCEVNIC()
	small := gce.RetransProb(9000)
	large := gce.RetransProb(131072)
	if small > 1e-4 {
		t.Errorf("GCE 9K retrans prob %g should be near zero", small)
	}
	// Paper: ~2% of segments retransmitted at the 128K default.
	if large < 0.01 || large > 0.05 {
		t.Errorf("GCE 128K retrans prob %g outside ~2%% ballpark", large)
	}
	ec2 := EC2VNIC()
	if p := ec2.RetransProb(131072); p > 1e-4 {
		t.Errorf("EC2 retrans prob %g should be negligible", p)
	}
	// Probability must be capped at 1.
	extreme := VNICModel{
		Name: "x", MTUBytes: 1500, TSOMaxBytes: 1 << 20, BaseRTTms: 1,
		NormalQueuePackets: 1, DriverQueueBytes: 1,
		RetransSlopePerByte: 1, RetransKneeBytes: 0,
	}
	if p := extreme.RetransProb(1 << 20); p != 1 {
		t.Errorf("retrans prob not capped: %g", p)
	}
}

func TestPacketsForVolume(t *testing.T) {
	ec2 := EC2VNIC()
	// 1 Gbit = 125 MB; at 9000-byte packets: ceil(125e6/9000) = 13889.
	if got := packetsFor(1, ec2.EffectivePacketBytes(131072)); got != 13889 {
		t.Errorf("packetsFor = %d, want 13889", got)
	}
	if got := packetsFor(0, ec2.EffectivePacketBytes(131072)); got != 0 {
		t.Errorf("zero volume packets = %d", got)
	}
	if got := packetsFor(1, ec2.EffectivePacketBytes(0)); got != 0 {
		t.Errorf("zero write packets = %d", got)
	}
}

func TestSampleRTTJitter(t *testing.T) {
	src := simrand.New(42)
	gce := GCEVNIC()
	model := gce.LatencyMs(65536, 8, false)
	var w float64
	n := 1000
	for i := 0; i < n; i++ {
		v := jitterRTT(src, model, gce.RTTJitterFrac)
		if v <= 0 {
			t.Fatalf("non-positive RTT sample %g", v)
		}
		w += v
	}
	mean := w / float64(n)
	// Lognormal with sigma 0.35 has mean e^{sigma^2/2} ≈ 1.063 times
	// the median; accept a generous band.
	if mean < model*0.8 || mean > model*1.5 {
		t.Errorf("sampled mean RTT %g far from model %g", mean, model)
	}
	if v := jitterRTT(src, model, 0); v != model {
		t.Errorf("zero jitter sample %g != model %g", v, model)
	}
}

func TestRunIperfEC2Throttling(t *testing.T) {
	// A small bucket empties mid-run: bandwidth must drop from ~10 to
	// ~1 Gbps and throttled bins must appear (Figure 7's pattern).
	sh, err := NewBucketShaper(tokenbucket.Params{
		BudgetGbit: 45, RefillGbps: 1, HighGbps: 10, LowGbps: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := simrand.New(7)
	res, err := RunIperf(sh, EC2VNIC(), IperfConfig{
		DurationSec: 10, WriteBytes: 131072, BinSec: 1, RTTSamplesPerBin: 50,
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BandwidthGbps) != 10 {
		t.Fatalf("got %d bins", len(res.BandwidthGbps))
	}
	if res.BandwidthGbps[0] < 9 {
		t.Errorf("first bin %g Gbps, want ~10", res.BandwidthGbps[0])
	}
	last := res.BandwidthGbps[len(res.BandwidthGbps)-1]
	if last > 1.5 {
		t.Errorf("last bin %g Gbps, want ~1 after throttle", last)
	}
	sawThrottle := false
	for _, th := range res.ThrottledBins {
		if th {
			sawThrottle = true
		}
	}
	if !sawThrottle {
		t.Error("no throttled bins recorded")
	}
	if res.Packets == 0 || len(res.RTTms) == 0 {
		t.Error("no packets or RTT samples recorded")
	}
}

func TestRunIperfConfigErrors(t *testing.T) {
	sh := &FixedShaper{RateGbps: 10}
	src := simrand.New(1)
	bad := []IperfConfig{
		{DurationSec: 0, WriteBytes: 1, BinSec: 1},
		{DurationSec: 1, WriteBytes: 0, BinSec: 1},
		{DurationSec: 1, WriteBytes: 1, BinSec: 0},
		{DurationSec: 1, WriteBytes: 1, BinSec: 1, RTTSamplesPerBin: -1},
		{DurationSec: math.NaN(), WriteBytes: 1, BinSec: 1},
		{DurationSec: math.Inf(1), WriteBytes: 1, BinSec: 1},
		{DurationSec: 1, WriteBytes: 1, BinSec: math.NaN()},
		{DurationSec: 1, WriteBytes: 1, BinSec: math.Inf(1)},
		// Bins, and RTT samples, too many to allocate.
		{DurationSec: 3.6e15, WriteBytes: 1, BinSec: 10},
		{DurationSec: 1, WriteBytes: 1, BinSec: 1, RTTSamplesPerBin: math.MaxInt32},
	}
	for i, cfg := range bad {
		if _, err := RunIperf(sh, EC2VNIC(), cfg, src); err == nil {
			t.Errorf("config %d should error", i)
		}
	}
	atBound := IperfConfig{DurationSec: maxRunSamples / 4 * 10, WriteBytes: 1, BinSec: 10, RTTSamplesPerBin: 4}
	if err := atBound.Validate(); err != nil {
		t.Errorf("a run of %d samples: %v", maxRunSamples, err)
	}
	atBound.DurationSec += 10
	if err := atBound.Validate(); err == nil || !strings.Contains(err.Error(), "above the bound of 16777216 samples") {
		t.Errorf("a run of %d samples: %v, want the bound named", maxRunSamples+4, err)
	}
	atBound.RTTSamplesPerBin = 0
	if err := atBound.Validate(); err != nil {
		t.Errorf("a run of %d bins without samples: %v", maxRunSamples/4+1, err)
	}
	badModel := EC2VNIC()
	badModel.MTUBytes = 0
	if _, err := RunIperf(sh, badModel, IperfConfig{DurationSec: 1, WriteBytes: 1, BinSec: 1}, src); err == nil {
		t.Error("invalid model should error")
	}
}

func TestWriteSizeSweep(t *testing.T) {
	src := simrand.New(12)
	newShaper := func() Shaper { return &FixedShaper{RateGbps: 8} }
	sizes := []int{1024, 9000, 65536, 131072}
	points, err := WriteSizeSweep(newShaper, GCEVNIC(), sizes, IperfConfig{
		DurationSec: 5, BinSec: 1, RTTSamplesPerBin: 100,
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(sizes) {
		t.Fatalf("got %d points", len(points))
	}
	// Latency and retransmissions must both grow with write size on
	// GCE (the Figure 12 shape).
	if points[3].MeanRTTms <= points[1].MeanRTTms {
		t.Errorf("GCE RTT did not grow: %g at 9K vs %g at 128K",
			points[1].MeanRTTms, points[3].MeanRTTms)
	}
	if points[3].Retransmissions <= points[1].Retransmissions {
		t.Errorf("GCE retransmissions did not grow: %d at 9K vs %d at 128K",
			points[1].Retransmissions, points[3].Retransmissions)
	}
	if points[0].P99RTTms < points[0].MeanRTTms {
		t.Error("p99 below mean")
	}
}

func BenchmarkRunIperf(b *testing.B) {
	src := simrand.New(1)
	for i := 0; i < b.N; i++ {
		sh, _ := NewBucketShaper(tokenbucket.Params{
			BudgetGbit: 45, RefillGbps: 1, HighGbps: 10, LowGbps: 1,
		})
		_, _ = RunIperf(sh, EC2VNIC(), IperfConfig{
			DurationSec: 10, WriteBytes: 131072, BinSec: 1, RTTSamplesPerBin: 10,
		}, src)
	}
}
