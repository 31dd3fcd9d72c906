package tokenbucket

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"cloudvar/internal/simrand"
)

// c5xlarge mirrors the paper's canonical example: 10 Gbps high,
// 1 Gbps low, ~1 Gbit/s refill.
func c5xlarge() Params {
	return Params{BudgetGbit: 5400, RefillGbps: 1, HighGbps: 10, LowGbps: 1}
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		ok   bool
	}{
		{"valid", c5xlarge(), true},
		{"negative budget", Params{BudgetGbit: -1, RefillGbps: 1, HighGbps: 10, LowGbps: 1}, false},
		{"negative refill", Params{BudgetGbit: 1, RefillGbps: -1, HighGbps: 10, LowGbps: 1}, false},
		{"zero high", Params{BudgetGbit: 1, RefillGbps: 1, HighGbps: 0, LowGbps: 1}, false},
		{"zero low", Params{BudgetGbit: 1, RefillGbps: 1, HighGbps: 10, LowGbps: 0}, false},
		{"low above high", Params{BudgetGbit: 1, RefillGbps: 1, HighGbps: 5, LowGbps: 6}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.p.Validate()
			if c.ok && err != nil {
				t.Errorf("unexpected error %v", err)
			}
			if !c.ok && err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(Params{BudgetGbit: -1, RefillGbps: 1, HighGbps: 1, LowGbps: 1}); err == nil {
		t.Error("New should propagate validation errors")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid params")
		}
	}()
	MustNew(Params{BudgetGbit: -1, RefillGbps: 1, HighGbps: 1, LowGbps: 1})
}

func TestTimeToEmpty(t *testing.T) {
	p := c5xlarge()
	// 5400 Gbit budget drains at (10-1) Gbps: 600 s — the "about ten
	// minutes of full-speed transfer" the paper reports for c5.xlarge.
	if got := p.TimeToEmpty(); math.Abs(got-600) > 1e-9 {
		t.Errorf("TimeToEmpty = %g, want 600", got)
	}
	slow := Params{BudgetGbit: 100, RefillGbps: 2, HighGbps: 2, LowGbps: 1}
	if !math.IsInf(slow.TimeToEmpty(), 1) {
		t.Error("demand at refill rate should never empty the bucket")
	}
}

func TestTransferHighPhase(t *testing.T) {
	b := MustNew(c5xlarge())
	// 10 seconds at full demand: all high-rate.
	got := b.Transfer(10, 10)
	if math.Abs(got-100) > 1e-9 {
		t.Errorf("transferred %g Gbit, want 100", got)
	}
	// Tokens drained at 9 Gbps for 10 s.
	if math.Abs(b.Tokens()-(5400-90)) > 1e-9 {
		t.Errorf("tokens = %g, want 5310", b.Tokens())
	}
}

func TestTransferPhaseTransition(t *testing.T) {
	b := MustNew(c5xlarge())
	// 1000 s at full speed: 600 s high (6000 Gbit) + 400 s low
	// (400 Gbit).
	got := b.Transfer(10, 1000)
	want := 10*600 + 1*400.0
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("transferred %g, want %g", got, want)
	}
	if b.Tokens() != 0 {
		t.Errorf("tokens = %g after depletion, want 0", b.Tokens())
	}
}

func TestTransferStaysEmptyAtCap(t *testing.T) {
	b := MustNew(c5xlarge())
	b.SetTokens(0)
	// The paper: transmitting at the capped rate keeps the bucket
	// from refilling.
	got := b.Transfer(10, 100)
	if math.Abs(got-100) > 1e-9 { // 1 Gbps × 100 s
		t.Errorf("capped transfer = %g, want 100", got)
	}
	if b.Tokens() != 0 {
		t.Errorf("bucket refilled to %g while transmitting at cap", b.Tokens())
	}
}

func TestTransferLowDemandGrowsTokens(t *testing.T) {
	b := MustNew(c5xlarge())
	b.SetTokens(1000)
	// Demand 0.5 Gbps < refill 1: tokens grow at 0.5 Gbit/s.
	got := b.Transfer(0.5, 100)
	if math.Abs(got-50) > 1e-9 {
		t.Errorf("transfer = %g, want 50", got)
	}
	if math.Abs(b.Tokens()-1050) > 1e-9 {
		t.Errorf("tokens = %g, want 1050", b.Tokens())
	}
}

func TestTransferTokensCappedAtBudget(t *testing.T) {
	b := MustNew(c5xlarge())
	b.Transfer(0.5, 1e6)
	if b.Tokens() > b.Params().BudgetGbit {
		t.Errorf("tokens %g exceeded budget %g", b.Tokens(), b.Params().BudgetGbit)
	}
}

func TestIdleRefills(t *testing.T) {
	b := MustNew(c5xlarge())
	b.SetTokens(0)
	b.Idle(100)
	if math.Abs(b.Tokens()-100) > 1e-9 {
		t.Errorf("tokens after 100 s idle = %g, want 100", b.Tokens())
	}
	b.Idle(1e9)
	if b.Tokens() != b.Params().BudgetGbit {
		t.Errorf("idle refill exceeded budget: %g", b.Tokens())
	}
}

func TestSetTokensClamps(t *testing.T) {
	b := MustNew(c5xlarge())
	b.SetTokens(-5)
	if b.Tokens() != 0 {
		t.Errorf("negative SetTokens gave %g", b.Tokens())
	}
	b.SetTokens(1e9)
	if b.Tokens() != b.Params().BudgetGbit {
		t.Errorf("oversized SetTokens gave %g", b.Tokens())
	}
}

func TestRate(t *testing.T) {
	b := MustNew(c5xlarge())
	if got := b.Rate(20); got != 10 {
		t.Errorf("full-bucket rate for demand 20 = %g, want 10", got)
	}
	if got := b.Rate(3); got != 3 {
		t.Errorf("rate limited by demand: got %g, want 3", got)
	}
	b.SetTokens(0)
	if got := b.Rate(20); got != 1 {
		t.Errorf("empty-bucket rate = %g, want 1", got)
	}
	if got := b.Rate(0); got != 0 {
		t.Errorf("zero demand rate = %g", got)
	}
}

func TestTransferZeroAndNegative(t *testing.T) {
	b := MustNew(c5xlarge())
	if got := b.Transfer(10, 0); got != 0 {
		t.Errorf("zero-duration transfer = %g", got)
	}
	before := b.Tokens()
	if got := b.Transfer(0, 50); got != 0 {
		t.Errorf("zero-demand transfer = %g", got)
	}
	if b.Tokens() < before {
		t.Error("zero-demand transfer drained tokens")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative duration should panic")
		}
	}()
	b.Transfer(1, -1)
}

// TestTransferConservation is the core property test: transferred
// volume plus remaining tokens can never exceed initial tokens plus
// refill income, and transfer never exceeds demand × time.
func TestTransferConservation(t *testing.T) {
	src := simrand.New(404)
	f := func(budgetRaw, demandRaw, dtRaw, initRaw uint16) bool {
		p := Params{
			BudgetGbit: 1 + float64(budgetRaw%5000),
			RefillGbps: 1,
			HighGbps:   10,
			LowGbps:    1,
		}
		b := MustNew(p)
		init := float64(initRaw%5001) * p.BudgetGbit / 5000
		b.SetTokens(init)
		init = b.Tokens()
		demand := float64(demandRaw%200)/10 + 0.1 // 0.1..20 Gbps
		dt := float64(dtRaw%10000)/10 + 0.1       // 0.1..1000 s
		_ = src
		moved := b.Transfer(demand, dt)

		if moved < 0 {
			return false
		}
		if moved > demand*dt+1e-6 {
			return false // moved more than demanded
		}
		if moved > p.HighGbps*dt+1e-6 {
			return false // moved faster than the high cap
		}
		// Conservation: tokens_end <= tokens_start + refill*dt -
		// tokens spent; tokens spent >= moved - low*dt is not tight,
		// use the accounting identity instead: spend = moved when
		// tokens>0 portions; globally tokens_end - tokens_start <=
		// refill*dt - 0 and moved <= init + refill*dt + low*dt.
		if b.Tokens() > init+p.RefillGbps*dt+1e-6 {
			return false
		}
		if moved > init+p.RefillGbps*dt+p.LowGbps*dt+1e-6 {
			return false
		}
		return b.Tokens() >= 0 && b.Tokens() <= p.BudgetGbit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestTransferSplitInvariance: transferring for dt must equal
// transferring for dt/2 twice (the closed-form integration has no
// step-size dependence).
func TestTransferSplitInvariance(t *testing.T) {
	f := func(initRaw, dtRaw uint16) bool {
		p := c5xlarge()
		whole := MustNew(p)
		split := MustNew(p)
		init := float64(initRaw%5401) / 5400 * p.BudgetGbit
		whole.SetTokens(init)
		split.SetTokens(init)
		dt := float64(dtRaw%2000) + 1
		a := whole.Transfer(10, dt)
		b := split.Transfer(10, dt/2) + split.Transfer(10, dt/2)
		return math.Abs(a-b) < 1e-6 && math.Abs(whole.Tokens()-split.Tokens()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestOscillationUnderBurstyDemand(t *testing.T) {
	// Figure 18's straggler oscillates between high and low rates:
	// bursty demand alternating with rests partially refills the
	// bucket, giving short high-rate windows.
	b := MustNew(Params{BudgetGbit: 50, RefillGbps: 1, HighGbps: 10, LowGbps: 1})
	b.SetTokens(0)
	sawHigh, sawLow := false, false
	for cycle := 0; cycle < 20; cycle++ {
		b.Idle(30) // rest refills 30 Gbit
		rate := b.Rate(10)
		if rate >= 10 {
			sawHigh = true
		}
		b.Transfer(10, 10) // burst drains it again
		if b.Rate(10) <= 1 {
			sawLow = true
		}
	}
	if !sawHigh || !sawLow {
		t.Errorf("no oscillation: sawHigh=%v sawLow=%v", sawHigh, sawLow)
	}
}

func TestInferParamsRecoversTruth(t *testing.T) {
	p := c5xlarge()
	b := MustNew(p)
	// Build a full-speed 10 s-binned trace of 1200 s (covers the 600 s
	// transition).
	const binSec = 10
	var trace []float64
	for i := 0; i < 120; i++ {
		gbit := b.Transfer(10, binSec)
		trace = append(trace, gbit/binSec)
	}
	inf, err := InferParams(trace, binSec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(inf.TimeToEmptySec-600) > 20 {
		t.Errorf("inferred time-to-empty %g, want ~600", inf.TimeToEmptySec)
	}
	if math.Abs(inf.HighGbps-10) > 0.5 {
		t.Errorf("inferred high %g, want ~10", inf.HighGbps)
	}
	if math.Abs(inf.LowGbps-1) > 0.2 {
		t.Errorf("inferred low %g, want ~1", inf.LowGbps)
	}
	if math.Abs(inf.BudgetGbit-5400) > 300 {
		t.Errorf("inferred budget %g, want ~5400", inf.BudgetGbit)
	}
	rp := Params{BudgetGbit: inf.BudgetGbit, RefillGbps: inf.RefillGbps, HighGbps: inf.HighGbps, LowGbps: inf.LowGbps}
	if err := rp.Validate(); err != nil {
		t.Errorf("inferred params invalid: %v", err)
	}
}

func TestInferParamsNoisyTrace(t *testing.T) {
	src := simrand.New(808)
	p := c5xlarge()
	b := MustNew(p)
	var trace []float64
	for i := 0; i < 120; i++ {
		gbit := b.Transfer(10, 10)
		trace = append(trace, gbit/10*(1+src.Normal(0, 0.03)))
	}
	inf, err := InferParams(trace, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(inf.TimeToEmptySec-600) > 50 {
		t.Errorf("noisy inference time-to-empty %g, want ~600", inf.TimeToEmptySec)
	}
}

func TestInferParamsErrors(t *testing.T) {
	if _, err := InferParams([]float64{1, 2, 3}, 10, 1); err == nil {
		t.Error("short trace should error")
	}
	flat := make([]float64, 100)
	for i := range flat {
		flat[i] = 9.5
	}
	if _, err := InferParams(flat, 10, 1); !errors.Is(err, ErrNoThrottle) {
		t.Errorf("flat trace error = %v, want ErrNoThrottle", err)
	}
	if _, err := InferParams(flat, 0, 1); err == nil {
		t.Error("zero sample interval should error")
	}
}

func TestC5FamilyCatalog(t *testing.T) {
	fam := C5Family()
	if len(fam) != 4 {
		t.Fatalf("catalog has %d entries, want 4", len(fam))
	}
	var prevBudget, prevLow float64
	for _, spec := range fam {
		if err := spec.Params.Validate(); err != nil {
			t.Errorf("%s: invalid params: %v", spec.Name, err)
		}
		// Paper: bucket size and low bandwidth increase with VM size.
		if spec.Params.BudgetGbit <= prevBudget {
			t.Errorf("%s: budget %g not increasing", spec.Name, spec.Params.BudgetGbit)
		}
		if spec.Params.LowGbps <= prevLow {
			t.Errorf("%s: low rate %g not increasing", spec.Name, spec.Params.LowGbps)
		}
		prevBudget, prevLow = spec.Params.BudgetGbit, spec.Params.LowGbps
	}
}

func TestIncarnateVariance(t *testing.T) {
	src := simrand.New(909)
	var spec InstanceSpec
	for _, s := range C5Family() {
		if s.Name == "c5.xlarge" {
			spec = s
		}
	}
	saw5Gbps := false
	for i := 0; i < 200; i++ {
		p := spec.Incarnate(src)
		if err := p.Validate(); err != nil {
			t.Fatalf("incarnation %d invalid: %v", i, err)
		}
		if p.HighGbps < 6 {
			saw5Gbps = true
		}
	}
	// The paper observed ~5 Gbps-capped incarnations from August 2019.
	if !saw5Gbps {
		t.Error("no 5 Gbps incarnations in 200 draws (AltHighProb=0.25)")
	}
}

func BenchmarkTransferClosedForm(b *testing.B) {
	bucket := MustNew(c5xlarge())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bucket.SetTokens(5400)
		bucket.Transfer(10, 1000)
	}
}
