package cloudmodel

import (
	"math"
	"strings"
	"testing"

	"cloudvar/internal/netem"
	"cloudvar/internal/simrand"
	"cloudvar/internal/stats"
	"cloudvar/internal/tokenbucket"
	"cloudvar/internal/trace"
)

func TestBallaniCatalog(t *testing.T) {
	clouds := BallaniClouds()
	if len(clouds) != 8 {
		t.Fatalf("got %d clouds, want 8 (A-H)", len(clouds))
	}
	names := map[string]bool{}
	for _, c := range clouds {
		names[c.Name] = true
		// Percentiles must be non-decreasing.
		for i := 1; i < 5; i++ {
			if c.PercentilesMbps[i] < c.PercentilesMbps[i-1] {
				t.Errorf("cloud %s: percentile %d decreases", c.Name, i)
			}
		}
		// All within the paper's 0-1000 Mb/s axis.
		if c.PercentilesMbps[0] < 0 || c.PercentilesMbps[4] > 1000 {
			t.Errorf("cloud %s outside Figure 2 axis", c.Name)
		}
		if c.IQRMbps() < 0 {
			t.Errorf("cloud %s: negative IQR", c.Name)
		}
	}
	for _, want := range []string{"A", "B", "C", "D", "E", "F", "G", "H"} {
		if !names[want] {
			t.Errorf("missing cloud %s", want)
		}
	}
}

func TestBallaniCloudByName(t *testing.T) {
	c, err := BallaniCloudByName("F")
	if err != nil || c.Name != "F" {
		t.Errorf("lookup F: %v, %v", c, err)
	}
	if _, err := BallaniCloudByName("Z"); err == nil {
		t.Error("unknown cloud should error")
	}
}

func TestBallaniDistSampling(t *testing.T) {
	src := simrand.New(5)
	c, _ := BallaniCloudByName("C")
	dist := c.DistGbps()
	for i := 0; i < 1000; i++ {
		v := dist.Sample(src)
		if v < c.PercentilesMbps[0]/1000 || v > c.PercentilesMbps[4]/1000 {
			t.Fatalf("sample %g Gbps outside support", v)
		}
	}
}

func TestEC2ProfileThrottles(t *testing.T) {
	p, err := EC2Profile("c5.xlarge")
	if err != nil {
		t.Fatal(err)
	}
	if p.Cloud != "ec2" || p.VNIC.MTUBytes != 9000 {
		t.Errorf("unexpected profile %+v", p)
	}
	src := simrand.New(42)
	sh := p.NewShaper(src)
	// Drain long enough to deplete even a slow (5 Gbps) incarnation
	// with a generously jittered budget; the rate must then drop.
	first := sh.Rate(1e12)
	sh.Transfer(1e12, 4000)
	after := sh.Rate(1e12)
	if after >= first/2 {
		t.Errorf("no throttle after 4000 s: %g -> %g Gbps", first, after)
	}
}

func TestEC2ProfileUnknownInstance(t *testing.T) {
	if _, err := EC2Profile("m6i.32xlarge"); err == nil {
		t.Error("unknown instance should error")
	}
}

func TestGCEShaperWarmup(t *testing.T) {
	src := simrand.New(7)
	g := newGCEShaper(8, src)
	cold := g.Rate(1e12)
	g.Transfer(1e12, 60) // warm for a minute
	warm := g.Rate(1e12)
	if warm < cold {
		t.Errorf("warming decreased rate: %g -> %g", cold, warm)
	}
	if warm > 16*1.1 {
		t.Errorf("8-core GCE rate %g exceeds QoS 16 Gbps (+noise)", warm)
	}
	// Idling long enough resets to cold.
	g.Idle(30)
	recold := g.Rate(1e12)
	if recold > warm*1.05 {
		t.Errorf("idle did not reset warm-up: %g vs warm %g", recold, warm)
	}
}

// TestGCEAccessPatternDependence reproduces Figure 5's key shape:
// full-speed achieves stable high performance while 5-30 exhibits a
// long low tail.
func TestGCEAccessPatternDependence(t *testing.T) {
	p, err := GCEProfile(8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultCampaignConfig(4 * 3600) // 4 emulated hours
	src := simrand.New(99)
	rc, err := RunAllRegimes(p, cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	full := stats.Summarize(rc.Series["full-speed"].Bandwidths())
	burst := stats.Summarize(rc.Series["5-30"].Bandwidths())
	if full.Median < burst.Median {
		t.Errorf("full-speed median %g below 5-30 median %g", full.Median, burst.Median)
	}
	// Long lower tail: 5-30's p01 should sit far below its median.
	if burst.P01 > 0.85*burst.Median {
		t.Errorf("5-30 lacks a long tail: p01=%g median=%g", burst.P01, burst.Median)
	}
	// Full-speed is comparatively tight.
	if full.CoV > burst.CoV {
		t.Errorf("full-speed CoV %g exceeds 5-30 CoV %g", full.CoV, burst.CoV)
	}
	// Near the advertised 16 Gbps QoS.
	if full.Median < 13 || full.Median > 16.5 {
		t.Errorf("full-speed median %g outside the paper's 13-15.8 Gbps band", full.Median)
	}
}

func TestGCEProfileErrors(t *testing.T) {
	if _, err := GCEProfile(0); err == nil {
		t.Error("zero cores should error")
	}
}

func TestHPCCloudVariability(t *testing.T) {
	p, err := HPCCloudProfile(8)
	if err != nil {
		t.Fatal(err)
	}
	src := simrand.New(3)
	s, err := RunCampaign(p, trace.FullSpeed, DefaultCampaignConfig(3600), src)
	if err != nil {
		t.Fatal(err)
	}
	sum := s.Summary()
	// Figure 4: range ~7.7-10.4 Gbps.
	if sum.Min < 7.0 || sum.Max > 11.0 {
		t.Errorf("HPCCloud range [%g, %g] outside Figure 4's 7.7-10.4", sum.Min, sum.Max)
	}
	// Sample-to-sample steps can be large (paper: up to 33%).
	if s.MaxStepRatio() < 0.05 {
		t.Errorf("HPCCloud too smooth: max step %g", s.MaxStepRatio())
	}
}

func TestHPCCloudProfileErrors(t *testing.T) {
	for _, cores := range []int{0, 3, 16} {
		if _, err := HPCCloudProfile(cores); err == nil {
			t.Errorf("%d cores should error", cores)
		}
	}
}

// TestEC2RegimeSlowdowns reproduces Figure 6's headline: full-speed
// is ~7x slower than 5-30 and 10-30 is in between, because the
// token bucket rations a refill-limited budget.
func TestEC2RegimeSlowdowns(t *testing.T) {
	p, err := EC2Profile("c5.xlarge")
	if err != nil {
		t.Fatal(err)
	}
	// Pin the incarnation to nominal parameters for a deterministic
	// shape check: wrap NewShaper.
	p.NewShaper = func(src *simrand.Source) netem.Shaper {
		sh, err := netem.NewBucketShaper(tokenbucketNominal())
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	cfg := DefaultCampaignConfig(6 * 3600)
	src := simrand.New(17)
	rc, err := RunAllRegimes(p, cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	// Slowdown of each regime's mean send-phase bandwidth against the
	// 5-30 regime's.
	slow := map[string]float64{}
	for _, name := range []string{"5-30", "10-30", "full-speed"} {
		slow[name] = stats.Mean(rc.Series["5-30"].Bandwidths()) / stats.Mean(rc.Series[name].Bandwidths())
	}
	if slow["10-30"] < 1 || slow["full-speed"] < 1 {
		t.Errorf("5-30 should be the fastest regime; slowdowns = %v", slow)
	}
	if slow["full-speed"] < 4 || slow["full-speed"] > 10 {
		t.Errorf("full-speed slowdown %g outside the ~7x ballpark", slow["full-speed"])
	}
	if slow["10-30"] < 1.2 || slow["10-30"] > 4 {
		t.Errorf("10-30 slowdown %g outside the ~2-3x ballpark", slow["10-30"])
	}
}

// TestEC2TrafficTotalsRoughlyEqual reproduces Figure 10a: on EC2 the
// three regimes move roughly the same total volume over a long
// campaign, because all are budget/refill-limited.
func TestEC2TrafficTotalsRoughlyEqual(t *testing.T) {
	p, err := EC2Profile("c5.xlarge")
	if err != nil {
		t.Fatal(err)
	}
	p.NewShaper = func(src *simrand.Source) netem.Shaper {
		sh, err := netem.NewBucketShaper(tokenbucketNominal())
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	cfg := DefaultCampaignConfig(24 * 3600)
	src := simrand.New(23)
	rc, err := RunAllRegimes(p, cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	totals := map[string]float64{}
	for name, s := range rc.Series {
		cum := s.CumulativeTrafficTB()
		totals[name] = cum[len(cum)-1]
	}
	lo, hi := math.Inf(1), 0.0
	for _, v := range totals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi > 1.6*lo {
		t.Errorf("EC2 totals should be roughly equal, got %v", totals)
	}
}

func tokenbucketNominal() tokenbucket.Params {
	return tokenbucket.Params{BudgetGbit: 5400, RefillGbps: 1, HighGbps: 10, LowGbps: 1}
}

func TestTable3Catalog(t *testing.T) {
	rows := Table3()
	if len(rows) != 11 {
		t.Fatalf("Table 3 has %d rows, want 11", len(rows))
	}
	featured := 0
	for _, e := range rows {
		if !e.ExhibitsVariability {
			t.Errorf("%s %s: paper found variability everywhere", e.Cloud, e.InstanceType)
		}
		if e.Featured {
			featured++
		}
		if e.Cloud == "HPCCloud" {
			if e.QoSString() != "N/A" {
				t.Errorf("HPCCloud QoS = %q", e.QoSString())
			}
		}
	}
	if featured != 3 {
		t.Errorf("%d featured rows, want 3 (the * rows)", featured)
	}
	// The c5.XL row prints its <= QoS.
	if got := rows[0].QoSString(); got != "<= 10" {
		t.Errorf("c5.XL QoS = %q", got)
	}
}

func TestTable3Profiles(t *testing.T) {
	for _, e := range Table3() {
		p, err := e.Profile()
		if err != nil {
			t.Errorf("%s %s: %v", e.Cloud, e.InstanceType, err)
			continue
		}
		src := simrand.New(1)
		sh := p.NewShaper(src)
		if r := sh.Rate(1e12); r <= 0 {
			t.Errorf("%s %s: zero initial rate", e.Cloud, e.InstanceType)
		}
	}
}

func TestTotals(t *testing.T) {
	tot := Totals()
	if tot.Entries != 11 {
		t.Errorf("entries = %d", tot.Entries)
	}
	// 4×21 + 2×1 + 3×21(GCE is 4 rows of 21)... compute: Amazon
	// 21+21+1+1 = 44 days; Google 21×4 = 84; HPCCloud 7×3 = 21.
	// Total 149 days ≈ 21.3 weeks — "over 21 weeks" in the abstract.
	if tot.Weeks < 21 || tot.Weeks > 22 {
		t.Errorf("campaign weeks = %g, want ~21.3", tot.Weeks)
	}
	wantCost := 171.0 + 193 + 73 + 153 + 34 + 67 + 135 + 269
	if math.Abs(tot.TotalCostUSD-wantCost) > 1e-9 {
		t.Errorf("cost = %g, want %g", tot.TotalCostUSD, wantCost)
	}
}

func TestCampaignConfigValidation(t *testing.T) {
	bad := []CampaignConfig{
		{DurationSec: 0, BinSec: 10, WriteBytes: 1},
		{DurationSec: 10, BinSec: 0, WriteBytes: 1},
		{DurationSec: 10, BinSec: 10, WriteBytes: 0},
		{DurationSec: 10, BinSec: 10, WriteBytes: 1, RTTSamplesPerBin: -1},
		{DurationSec: math.NaN(), BinSec: 10, WriteBytes: 1},
		{DurationSec: math.Inf(1), BinSec: 10, WriteBytes: 1},
		{DurationSec: 10, BinSec: math.NaN(), WriteBytes: 1},
		{DurationSec: 10, BinSec: math.Inf(1), WriteBytes: 1},
		// 1e12 hours, and a femtosecond bin: series too long to allocate.
		{DurationSec: 3.6e15, BinSec: 10, WriteBytes: 1},
		{DurationSec: 10, BinSec: 1e-15, WriteBytes: 1},
	}
	p, _ := HPCCloudProfile(8)
	src := simrand.New(1)
	for i, cfg := range bad {
		if _, err := RunCampaign(p, trace.FullSpeed, cfg, src); err == nil {
			t.Errorf("config %d should error", i)
		}
	}
	atBound := CampaignConfig{DurationSec: maxCellPoints * 10, BinSec: 10, WriteBytes: 1}
	if err := atBound.Validate(); err != nil {
		t.Errorf("a cell of %d points: %v", maxCellPoints, err)
	}
	atBound.DurationSec += 10
	if err := atBound.Validate(); err == nil || !strings.Contains(err.Error(), "above the bound of 4194304 points") {
		t.Errorf("a cell of %d points: %v, want the bound named", maxCellPoints+1, err)
	}
	badRegimes := []trace.Regime{
		{Name: "bad", SendSec: -1},
		{Name: "nan", SendSec: math.NaN(), RestSec: math.NaN()},
		{Name: "nan-rest", SendSec: 10, RestSec: math.NaN()},
		{Name: "inf-send", SendSec: math.Inf(1), RestSec: 30},
	}
	for _, r := range badRegimes {
		if _, err := RunCampaign(p, r, DefaultCampaignConfig(100), src); err == nil {
			t.Errorf("regime %s should error", r.Name)
		}
	}
}

func TestCampaignSeriesShape(t *testing.T) {
	p, _ := HPCCloudProfile(8)
	src := simrand.New(2)
	s, err := RunCampaign(p, trace.Send10R30, DefaultCampaignConfig(400), src)
	if err != nil {
		t.Fatal(err)
	}
	// 400 s of 40 s cycles: 10 bursts.
	if len(s.Points) != 10 {
		t.Errorf("got %d burst points, want 10", len(s.Points))
	}
	if s.IntervalSec != 10 {
		t.Errorf("burst series interval = %g, want 10 (send phase)", s.IntervalSec)
	}
	for i, pt := range s.Points {
		if wantT := float64(i) * 40; pt.TimeSec != wantT {
			t.Errorf("point %d at %g, want %g", i, pt.TimeSec, wantT)
		}
		if pt.CPUFrac < 0 || pt.CPUFrac > 1 {
			t.Errorf("CPU fraction %g out of range", pt.CPUFrac)
		}
	}
}

// TestRunAllRegimesMatchesSequentialLoop proves RunAllRegimes, whose
// regimes share one scratch arena, is bit-identical to running each
// regime on its own substream with a fresh one.
func TestRunAllRegimesMatchesSequentialLoop(t *testing.T) {
	p, err := EC2Profile("c5.xlarge")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultCampaignConfig(300)

	// Reference: the pre-fleet sequential loop.
	want := map[string]*trace.Series{}
	src := simrand.New(11)
	for _, regime := range trace.Regimes() {
		s, err := RunCampaign(p, regime, cfg, src.Substream("campaign/"+regime.Name))
		if err != nil {
			t.Fatal(err)
		}
		want[regime.Name] = s
	}

	rc, err := RunAllRegimes(p, cfg, simrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Series) != len(want) {
		t.Fatalf("%d series, want %d", len(rc.Series), len(want))
	}
	for name, ws := range want {
		got := rc.Series[name]
		if got == nil {
			t.Fatalf("missing regime %s", name)
		}
		if len(got.Points) != len(ws.Points) {
			t.Fatalf("regime %s has %d points, want %d", name, len(got.Points), len(ws.Points))
		}
		for i := range ws.Points {
			if got.Points[i] != ws.Points[i] {
				t.Fatalf("regime %s point %d = %+v, want %+v", name, i, got.Points[i], ws.Points[i])
			}
		}
	}
}
