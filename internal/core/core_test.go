package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"cloudvar/internal/netem"
	"cloudvar/internal/simrand"
	"cloudvar/internal/tokenbucket"
)

// noisyTrial returns a Trial producing Normal(mean, sd) measurements.
func noisyTrial(seed uint64, mean, sd float64) Trial {
	src := simrand.New(seed)
	return func() (float64, error) { return src.Normal(mean, sd), nil }
}

func TestDesignValidation(t *testing.T) {
	bad := []Design{
		{Repetitions: 1},
		{Adaptive: true, MaxRepetitions: 3},
		{Repetitions: 10, Confidence: 1.5},
		{Repetitions: 10, ErrorBound: -1},
		{Repetitions: 10, RestSec: -1},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("design %d should fail", i)
		}
	}
	if err := DefaultDesign(10).Validate(); err != nil {
		t.Errorf("default design invalid: %v", err)
	}
}

func TestRunFixedDesign(t *testing.T) {
	res, err := Run("fixed", DefaultDesign(30), nil, noisyTrial(1, 100, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 30 {
		t.Fatalf("got %d samples", len(res.Samples))
	}
	if res.MedianCIErr != nil {
		t.Fatalf("median CI failed: %v", res.MedianCIErr)
	}
	if !res.MedianCI.Contains(res.Summary.Median) {
		t.Error("CI excludes its own median")
	}
	if res.Summary.N != 30 {
		t.Error("summary not computed")
	}
}

func TestRunAdaptiveStopsEarly(t *testing.T) {
	// Tiny variance: should converge long before the cap.
	res, err := Run("adaptive", Design{
		Adaptive: true, MaxRepetitions: 100, ErrorBound: 0.05,
	}, nil, noisyTrial(2, 100, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("low-variance adaptive run did not converge")
	}
	if len(res.Samples) >= 100 {
		t.Errorf("adaptive run used all %d repetitions", len(res.Samples))
	}
}

func TestRunAdaptiveHitsCapOnNoisyData(t *testing.T) {
	res, err := Run("noisy", Design{
		Adaptive: true, MaxRepetitions: 20, ErrorBound: 0.001,
	}, nil, noisyTrial(3, 100, 30))
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("0.1% bound on 30% CoV data should not converge in 20 reps")
	}
	if len(res.Samples) != 20 {
		t.Errorf("expected cap of 20, got %d", len(res.Samples))
	}
}

func TestRunErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run("err", DefaultDesign(5), nil, func() (float64, error) { return 0, boom })
	if !errors.Is(err, boom) {
		t.Errorf("trial error not propagated: %v", err)
	}
	_, err = Run("nan", DefaultDesign(5), nil, func() (float64, error) { return math.NaN(), nil })
	if err == nil {
		t.Error("NaN measurement should error")
	}
	if _, err := Run("nil", DefaultDesign(5), nil, nil); err == nil {
		t.Error("nil trial should error")
	}
}

// trackingEnv counts Reset and Rest calls.
type trackingEnv struct {
	resets int
	rests  int
	fail   bool
}

func (e *trackingEnv) Reset() error {
	if e.fail {
		return errors.New("reset failed")
	}
	e.resets++
	return nil
}
func (e *trackingEnv) Rest(float64) error { e.rests++; return nil }

func TestEnvironmentHooks(t *testing.T) {
	env := &trackingEnv{}
	_, err := Run("hooks", Design{
		Repetitions: 5, RestSec: 1, FreshEnv: true,
	}, env, noisyTrial(4, 10, 1))
	if err != nil {
		t.Fatal(err)
	}
	if env.resets != 5 {
		t.Errorf("resets = %d, want 5", env.resets)
	}
	if env.rests != 4 { // no rest before the first repetition
		t.Errorf("rests = %d, want 4", env.rests)
	}

	env = &trackingEnv{fail: true}
	if _, err := Run("hookfail", Design{Repetitions: 3, FreshEnv: true}, env, noisyTrial(5, 10, 1)); err == nil {
		t.Error("reset failure should propagate")
	}
}

func TestValidateIIDPath(t *testing.T) {
	src := simrand.New(9)
	iid := make([]float64, 80)
	for i := range iid {
		iid[i] = src.Normal(50, 2)
	}
	rep := Validate(iid)
	if rep.IndependenceErr != nil || rep.Independence.RejectAt05 || rep.StationarityErr != nil || !rep.Stationarity.Stationary {
		t.Errorf("iid data failed the independence or stationarity check: %+v", rep.Findings())
	}

	drifting := make([]float64, 80)
	for i := range drifting {
		drifting[i] = 50 + float64(i) + src.Normal(0, 1)
	}
	rep = Validate(drifting)
	findings := rep.Findings()
	if len(findings) == 0 {
		t.Fatal("drifting data produced no findings")
	}
	joined := strings.Join(findings, "\n")
	if !strings.Contains(joined, "not independent") && !strings.Contains(joined, "non-stationary") {
		t.Errorf("findings lack iid/stationarity diagnosis: %v", findings)
	}
}

func TestValidateShortSample(t *testing.T) {
	rep := Validate([]float64{1, 2})
	if rep.IndependenceErr == nil && rep.StationarityErr == nil {
		t.Error("unverifiable assumptions must not pass (the paper's point)")
	}
	if len(rep.Findings()) == 0 {
		t.Error("short sample should produce findings")
	}
}

func TestCompareMedians(t *testing.T) {
	fast, err := Run("fast", DefaultDesign(30), nil, noisyTrial(10, 50, 1))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run("slow", DefaultDesign(30), nil, noisyTrial(11, 100, 1))
	if err != nil {
		t.Fatal(err)
	}
	same, err := Run("same", DefaultDesign(30), nil, noisyTrial(12, 50, 1))
	if err != nil {
		t.Fatal(err)
	}
	d, err := CompareMedians(fast, slow)
	if err != nil || !d {
		t.Errorf("50 vs 100 not distinguishable: %v %v", d, err)
	}
	d, err = CompareMedians(fast, same)
	if err != nil {
		t.Fatal(err)
	}
	if d {
		t.Error("identical distributions distinguishable")
	}
	bad := Result{Name: "bad", MedianCIErr: errors.New("no CI")}
	if _, err := CompareMedians(bad, fast); err == nil {
		t.Error("missing CI should error")
	}
}

func TestFingerprintDetectsTokenBucket(t *testing.T) {
	src := simrand.New(13)
	newBucketed := func() netem.Shaper {
		sh, err := netem.NewBucketShaper(tokenbucket.Params{
			BudgetGbit: 5400, RefillGbps: 1, HighGbps: 10, LowGbps: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	fp, err := FingerprintShaper(newBucketed, netem.EC2VNIC(), FingerprintConfig{}, src)
	if err != nil {
		t.Fatal(err)
	}
	if fp.Bucket == nil {
		t.Fatal("token bucket not detected")
	}
	if math.Abs(fp.Bucket.HighGbps-10) > 1 || math.Abs(fp.Bucket.LowGbps-1) > 0.3 {
		t.Errorf("bucket rates: %+v", fp.Bucket)
	}
	if math.Abs(fp.BaseBandwidthGbps-10) > 1 {
		t.Errorf("base bandwidth %g, want ~10", fp.BaseBandwidthGbps)
	}
	if fp.BaseRTTms <= 0 || fp.LoadedRTTms <= 0 {
		t.Error("latency fields not populated")
	}
	if !strings.Contains(fp.String(), "token bucket") {
		t.Errorf("String() = %q", fp.String())
	}
}

func TestFingerprintNoBucketOnFixedShaper(t *testing.T) {
	src := simrand.New(14)
	newFixed := func() netem.Shaper { return &netem.FixedShaper{RateGbps: 8} }
	fp, err := FingerprintShaper(newFixed, netem.GCEVNIC(), FingerprintConfig{ThrottleProbeSec: 300}, src)
	if err != nil {
		t.Fatal(err)
	}
	if fp.Bucket != nil {
		t.Errorf("phantom bucket detected: %+v", fp.Bucket)
	}
	if !strings.Contains(fp.String(), "no deterministic throttling") {
		t.Errorf("String() = %q", fp.String())
	}
}

func TestFingerprintMatches(t *testing.T) {
	src := simrand.New(15)
	newShaper := func() netem.Shaper {
		sh, err := netem.NewBucketShaper(tokenbucket.Params{
			BudgetGbit: 5400, RefillGbps: 1, HighGbps: 10, LowGbps: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	a, err := FingerprintShaper(newShaper, netem.EC2VNIC(), FingerprintConfig{}, src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FingerprintShaper(newShaper, netem.EC2VNIC(), FingerprintConfig{}, src)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Matches(b, 0.15) {
		t.Errorf("same platform fingerprints do not match:\n%v\n%v", a, b)
	}
	// A 5 Gbps incarnation (the August 2019 change) must NOT match.
	newCapped := func() netem.Shaper {
		sh, err := netem.NewBucketShaper(tokenbucket.Params{
			BudgetGbit: 5400, RefillGbps: 1, HighGbps: 5, LowGbps: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	c, err := FingerprintShaper(newCapped, netem.EC2VNIC(), FingerprintConfig{}, src)
	if err != nil {
		t.Fatal(err)
	}
	if a.Matches(c, 0.15) {
		t.Error("10 Gbps and 5 Gbps platforms should not match")
	}
}

func TestFingerprintErrors(t *testing.T) {
	src := simrand.New(16)
	if _, err := FingerprintShaper(nil, netem.EC2VNIC(), FingerprintConfig{}, src); err == nil {
		t.Error("nil factory should error")
	}
	ok := func() netem.Shaper { return &netem.FixedShaper{RateGbps: 1} }
	if _, err := FingerprintShaper(ok, netem.EC2VNIC(), FingerprintConfig{}, nil); err == nil {
		t.Error("nil source should error")
	}
}

func TestResultPlanningPopulated(t *testing.T) {
	res, err := Run("plan", DefaultDesign(40), nil, noisyTrial(17, 100, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Planning.Points) == 0 {
		t.Fatal("CONFIRM planning missing")
	}
	req := res.Planning.RequiredRepetitions()
	if req == 0 {
		t.Error("required repetitions unset")
	}
	t.Log(fmt.Sprintf("planning suggests %d repetitions", req))
}
