package scenario

import (
	"math"
	"strings"
	"testing"

	"cloudvar/internal/cloudmodel"
	"cloudvar/internal/fleet"
	"cloudvar/internal/netem"
	"cloudvar/internal/simrand"
	"cloudvar/internal/spark"
	"cloudvar/internal/stats"
	"cloudvar/internal/store"
	"cloudvar/internal/trace"
)

func ec2Spec(t *testing.T, seed uint64) fleet.CampaignSpec {
	t.Helper()
	ec2, err := cloudmodel.EC2Profile("c5.xlarge")
	if err != nil {
		t.Fatal(err)
	}
	return fleet.CampaignSpec{
		Profiles: []cloudmodel.Profile{ec2},
		Regimes:  []trace.Regime{trace.FullSpeed},
		Config:   cloudmodel.DefaultCampaignConfig(600),
		Seed:     seed,
	}
}

func hpcSpec(t *testing.T, seed uint64, reps int) fleet.CampaignSpec {
	t.Helper()
	hpc, err := cloudmodel.HPCCloudProfile(8)
	if err != nil {
		t.Fatal(err)
	}
	return fleet.CampaignSpec{
		Profiles:    []cloudmodel.Profile{hpc},
		Regimes:     []trace.Regime{trace.FullSpeed},
		Repetitions: reps,
		Config:      cloudmodel.DefaultCampaignConfig(600),
		Seed:        seed,
	}
}

func meanBandwidth(t *testing.T, res fleet.CampaignResult) float64 {
	t.Helper()
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	var all []float64
	for _, c := range res.Cells {
		all = append(all, c.Series.Bandwidths()...)
	}
	return stats.Mean(all)
}

func TestScenarioValidate(t *testing.T) {
	if err := (Scenario{}).Validate(); err == nil {
		t.Error("empty scenario should fail validation")
	}
	if err := (Scenario{Name: "x"}).Validate(); err == nil {
		t.Error("condition-less scenario should fail validation")
	}
	dup := Scenario{Name: "x", Conditions: []Condition{Overlay{Depth: 0.1}, Overlay{Depth: 0.1}}}
	if err := dup.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate condition") {
		t.Errorf("duplicate conditions should fail validation, got %v", err)
	}
}

func TestConditionParameterValidation(t *testing.T) {
	env := Env{Seed: 1, DurationSec: 600}
	bad := []Condition{
		Overlay{Depth: 1},
		Overlay{Depth: -0.1},
		Window{StartSec: 10, EndSec: 5, Depth: 0.5},
		Window{StartSec: 0, EndSec: 10, Depth: 1.5},
		Ramp{StartSec: 0, DurationSec: 0, From: 1, To: 0.5},
		Ramp{StartSec: 0, DurationSec: 10, From: 0, To: 0.5},
		Diurnal{PeriodSec: 0, Depth: 0.3},
		Correlate{Depth: 0.5, MeanGapSec: 0, MeanLenSec: 10},
		PerVM{Prob: 1.5, Depth: 0.5},
		FlipRegime{AtFrac: 0, FallbackDepth: 0.5},
		FlipRegime{AtFrac: 1, FallbackDepth: 0.5},
	}
	for _, c := range bad {
		if _, err := c.Compile(env); err == nil {
			t.Errorf("%s should fail to compile", c.ID())
		}
	}
}

func TestExpandRejectsDoubleExpansion(t *testing.T) {
	sc, err := ByName("noisy-neighbor")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sc.Expand(ec2Spec(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Scenario.Name != "noisy-neighbor" {
		t.Fatalf("expanded spec carries scenario %q", spec.Scenario.Name)
	}
	if _, err := sc.Expand(spec); err == nil {
		t.Fatal("double expansion should be rejected")
	}
}

func TestExpandLeavesInputSpecUntouched(t *testing.T) {
	spec := ec2Spec(t, 7)
	orig := spec.Profiles[0].NewShaper
	sc, err := ByName("stragglers")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Expand(spec); err != nil {
		t.Fatal(err)
	}
	if !spec.Scenario.IsZero() {
		t.Error("Expand mutated the input spec's scenario")
	}
	// Factories are not comparable; check the input's factory still
	// builds an unwrapped shaper.
	sh := orig(simrand.New(1))
	if _, ok := sh.(*netem.BucketShaper); !ok {
		t.Errorf("input spec factory now builds %T", sh)
	}
	if spec.Profiles[0].NewShaper == nil {
		t.Error("input profile factory lost")
	}
}

// TestOverlayDepressesThroughput is the simplest end-to-end check: a
// 50% overlay halves an unshaped cloud's mean bandwidth.
func TestOverlayDepressesThroughput(t *testing.T) {
	base, err := fleet.Run(hpcSpec(t, 7, 0))
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{
		Name:       "test-overlay",
		Params:     map[string]float64{"depth": 0.5},
		Conditions: []Condition{Overlay{Depth: 0.5}},
	}
	spec, err := sc.Expand(hpcSpec(t, 7, 0))
	if err != nil {
		t.Fatal(err)
	}
	adverse, err := fleet.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, a := meanBandwidth(t, base), meanBandwidth(t, adverse)
	if ratio := a / b; math.Abs(ratio-0.5) > 0.05 {
		t.Errorf("overlay(0.5) bandwidth ratio %.3f, want ~0.5 (base %.2f, adverse %.2f)", ratio, b, a)
	}
}

// TestNoisyNeighborCorrelatesAcrossVMs checks the correlate
// primitive's defining property: every VM sees the depression in the
// same bins, so depressed bins line up across repetitions, while a
// per-VM condition of the same depth does not line up.
func TestNoisyNeighborCorrelatesAcrossVMs(t *testing.T) {
	sc := NoisyNeighbor(0.6, 120, 120)
	spec, err := sc.Expand(hpcSpec(t, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}

	// A bin is "depressed" when below 60% of the cell's own p95 (the
	// p95 sits in the undepressed band as long as episodes are not
	// near-constant; the median may not, when episodes are long).
	depressed := func(s *trace.Series) []bool {
		p95 := stats.Quantile(s.Bandwidths(), 0.95)
		out := make([]bool, len(s.Points))
		for i, p := range s.Points {
			out[i] = p.BandwidthGbps < 0.6*p95
		}
		return out
	}
	marks := make([][]bool, len(res.Cells))
	anyDepressed := false
	for i, c := range res.Cells {
		marks[i] = depressed(c.Series)
		for _, d := range marks[i] {
			anyDepressed = anyDepressed || d
		}
	}
	if !anyDepressed {
		t.Fatal("noisy-neighbor produced no depressed bins at all")
	}
	// Count bins depressed in one repetition but not another; under
	// perfect correlation the disagreement is zero (up to envelope
	// step effects at episode edges).
	disagree, total := 0, 0
	for b := range marks[0] {
		set := 0
		for i := range marks {
			if marks[i][b] {
				set++
			}
		}
		if set > 0 {
			total++
			if set != len(marks) {
				disagree++
			}
		}
	}
	if total == 0 {
		t.Fatal("no depressed bins to compare")
	}
	if frac := float64(disagree) / float64(total); frac > 0.35 {
		t.Errorf("depressed bins disagree across VMs in %.0f%% of cases; episodes should be correlated", frac*100)
	}
}

// TestStragglersDegradesSomeVMs checks per-VM injection: with prob
// 0.5 over 8 repetitions some VMs straggle and some do not, and the
// straggling VMs' bandwidth sits near the configured depression.
func TestStragglersDegradesSomeVMs(t *testing.T) {
	sc := Stragglers(0.5, 0.5)
	spec, err := sc.Expand(hpcSpec(t, 11, 8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	slow, fast := 0, 0
	for _, c := range res.Cells {
		m := stats.Mean(c.Series.Bandwidths())
		switch {
		case m < 6: // straggler: ~9.4 * 0.5
			slow++
		case m > 8:
			fast++
		default:
			t.Errorf("cell %s mean %.2f Gbps in neither band", c.Cell.Label(), m)
		}
	}
	if slow == 0 || fast == 0 {
		t.Errorf("stragglers split %d slow / %d fast; want both populations", slow, fast)
	}
}

// TestRegimeFlipDrainsBucketMidCampaign checks the flip scenario on an
// EC2 profile: bandwidth before the flip sits at the high rate, after
// it at the low rate — even though the budget would not have drained
// on its own within the window (c5.xlarge empties naturally only
// after ~10 minutes of full-speed transfer; the campaign is shorter).
func TestRegimeFlipDrainsBucketMidCampaign(t *testing.T) {
	ec2, err := cloudmodel.EC2Profile("c5.xlarge")
	if err != nil {
		t.Fatal(err)
	}
	spec := fleet.CampaignSpec{
		Profiles: []cloudmodel.Profile{ec2},
		Regimes:  []trace.Regime{trace.FullSpeed},
		Config:   cloudmodel.DefaultCampaignConfig(300),
		Seed:     5,
	}
	sc := RegimeFlip(0.5, 0.6)
	expanded, err := sc.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.Run(expanded)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	s := res.Cells[0].Series
	var pre, post []float64
	for _, p := range s.Points {
		if p.TimeSec < 150 {
			pre = append(pre, p.BandwidthGbps)
		} else {
			post = append(post, p.BandwidthGbps)
		}
	}
	preMed, postMed := stats.Median(pre), stats.Median(post)
	if preMed < 8 {
		t.Errorf("pre-flip median %.2f Gbps, want near the 10 Gbps high rate", preMed)
	}
	if postMed > 2 {
		t.Errorf("post-flip median %.2f Gbps, want near the ~1 Gbps low rate", postMed)
	}
}

// TestRegimeFlipFallbackOnBucketlessPath checks the fallback: a
// bucketless profile degrades by the fallback depth after the flip.
func TestRegimeFlipFallbackOnBucketlessPath(t *testing.T) {
	sc := RegimeFlip(0.5, 0.6)
	spec, err := sc.Expand(hpcSpec(t, 5, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	s := res.Cells[0].Series
	var pre, post []float64
	for _, p := range s.Points {
		if p.TimeSec < 300 {
			pre = append(pre, p.BandwidthGbps)
		} else {
			post = append(post, p.BandwidthGbps)
		}
	}
	ratio := stats.Median(post) / stats.Median(pre)
	if math.Abs(ratio-0.4) > 0.08 {
		t.Errorf("fallback ratio %.3f, want ~0.4 (depth 0.6)", ratio)
	}
}

// TestLossBurstCollapsesSomeBins checks the loss scenario: deep short
// episodes pull individual bins far below the median while the median
// itself stays near the (slightly depressed) baseline.
func TestLossBurstCollapsesSomeBins(t *testing.T) {
	sc := LossBurst(0.85, 120, 30, 0.05)
	spec, err := sc.Expand(hpcSpec(t, 9, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	bw := res.Cells[0].Series.Bandwidths()
	med := stats.Median(bw)
	if med < 7 {
		t.Errorf("median %.2f Gbps; baseline should stay near 9 Gbps", med)
	}
	collapsed := 0
	for _, v := range bw {
		if v < 0.5*med {
			collapsed++
		}
	}
	if collapsed == 0 {
		t.Error("no collapsed bins; loss episodes should gut some bins")
	}
	if frac := float64(collapsed) / float64(len(bw)); frac > 0.5 {
		t.Errorf("%.0f%% of bins collapsed; episodes should be bursts, not the norm", frac*100)
	}
}

// TestDiurnalCongestionModulates checks the diurnal scenario produces
// the day/night swing: bandwidth at the peak phase exceeds the trough.
func TestDiurnalCongestionModulates(t *testing.T) {
	const period = 600.0
	sc := DiurnalCongestion(period, 0.5, 0)
	spec, err := sc.Expand(hpcSpec(t, 13, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	s := res.Cells[0].Series
	var peak, trough []float64
	for _, p := range s.Points {
		phase := math.Mod(p.TimeSec, period) / period
		switch {
		case phase < 0.15 || phase > 0.85:
			peak = append(peak, p.BandwidthGbps)
		case phase > 0.35 && phase < 0.65:
			trough = append(trough, p.BandwidthGbps)
		}
	}
	pm, tm := stats.Mean(peak), stats.Mean(trough)
	if tm >= pm*0.8 {
		t.Errorf("trough mean %.2f vs peak mean %.2f; want a pronounced dip", tm, pm)
	}
}

// TestApplyClusterInjectsStragglers checks the spark wiring: with a
// deep deterministic per-node injection, shuffle-heavy stages on the
// degraded cluster run measurably slower.
func TestApplyClusterInjectsStragglers(t *testing.T) {
	cfg := spark.ClusterConfig{
		Nodes:        4,
		SlotsPerNode: 2,
		NewShaper:    func(int) netem.Shaper { return &netem.FixedShaper{RateGbps: 10} },
		IngressGbps:  10,
	}
	job := spark.Job{
		Name: "shuffle-heavy",
		Stages: []spark.StageSpec{
			{Name: "reduce", Tasks: 16, ComputeSec: 1, ShuffleGbit: 20},
		},
	}
	runtime := func(c spark.ClusterConfig, seed uint64) float64 {
		t.Helper()
		cl, err := spark.NewCluster(c, simrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.RunJob(job, spark.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Runtime()
	}

	baseline := runtime(cfg, 21)
	sc := Stragglers(1, 0.75) // every node degraded: deterministic
	adv, err := sc.ApplyCluster(cfg, 21, 3600)
	if err != nil {
		t.Fatal(err)
	}
	degraded := runtime(adv, 21)
	if degraded < baseline*2 {
		t.Errorf("degraded runtime %.1fs vs baseline %.1fs; want a clear slowdown", degraded, baseline)
	}
}

func TestRegistry(t *testing.T) {
	want := []string{"diurnal-congestion", "loss-burst", "noisy-neighbor", "regime-flip", "stragglers"}
	var got []string
	for _, sc := range All() {
		got = append(got, sc.Name)
	}
	if len(got) != len(want) {
		t.Fatalf("registry has %d scenarios (%v), want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("All()[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	for _, name := range want {
		sc, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Description == "" || len(sc.Params) == 0 {
			t.Errorf("%s: registry entries need a description and params", name)
		}
	}
	if _, err := ByName("quiet-day"); err == nil {
		t.Error("unknown scenario should error")
	}
	if err := Register(All()[0]); err == nil {
		t.Error("duplicate registration should error")
	}
}

func TestScenarioIDString(t *testing.T) {
	if s := (fleet.ScenarioID{}).String(); s != "none" {
		t.Errorf("zero id renders %q", s)
	}
	id := fleet.ScenarioID{Name: "x", Params: map[string]float64{"b": 2, "a": 1}}
	if s := id.String(); s != "x(a=1, b=2)" {
		t.Errorf("id renders %q; params must be sorted", s)
	}
}

// TestScenarioIDCoversConditions pins the identity gap fix: two
// scenarios sharing a name and params but composed differently must
// carry different identities, so their stored runs can never be
// resumed into or compared against each other.
func TestScenarioIDCoversConditions(t *testing.T) {
	a := Scenario{
		Name:       "lunch-rush",
		Params:     map[string]float64{"depth": 0.7},
		Conditions: []Condition{Window{StartSec: 3600, EndSec: 7200, Depth: 0.7}},
	}
	b := a
	b.Conditions = []Condition{Window{StartSec: 1800, EndSec: 7200, Depth: 0.7}}

	ia, ib := a.ID(), b.ID()
	if len(ia.Conditions) != 1 || ia.Conditions[0] != a.Conditions[0].ID() {
		t.Fatalf("ID().Conditions = %v, want the condition IDs", ia.Conditions)
	}
	if ia.Conditions[0] == ib.Conditions[0] {
		t.Fatal("different windows share a condition ID")
	}

	spec := ec2Spec(t, 7)
	ea, err := a.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	ka, err := store.SpecKey(ea)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := store.SpecKey(eb)
	if err != nil {
		t.Fatal(err)
	}
	if ka == kb {
		t.Fatal("scenarios with identical name+params but different conditions share a spec key")
	}
}

// TestRegistryReadsAreIsolated pins the aliasing fix: mutating a
// scenario handed out by ByName/All must not rewrite the registry.
func TestRegistryReadsAreIsolated(t *testing.T) {
	sc, err := ByName("noisy-neighbor")
	if err != nil {
		t.Fatal(err)
	}
	orig := sc.Params["depth"]
	sc.Params["depth"] = 0.99
	sc.Conditions[0] = Overlay{Depth: 0.1}

	fresh, err := ByName("noisy-neighbor")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Params["depth"] != orig {
		t.Fatalf("registry params mutated through a ByName copy: depth = %g", fresh.Params["depth"])
	}
	if _, ok := fresh.Conditions[0].(Correlate); !ok {
		t.Fatalf("registry conditions mutated through a ByName copy: %T", fresh.Conditions[0])
	}
	all := All()
	for _, s := range all {
		if s.Name == "noisy-neighbor" && s.Params["depth"] != orig {
			t.Fatal("registry params mutated as seen by All")
		}
	}
}
