package netem

import (
	"math"
	"testing"
	"testing/quick"

	"cloudvar/internal/simrand"
	"cloudvar/internal/tokenbucket"
)

// runWhileActive advances n until no flows remain or maxTime is
// reached.
func runWhileActive(n *Network, maxTime float64) {
	for n.ActiveFlows() > 0 && n.Now() < maxTime {
		n.RunUntilEvent(maxTime)
	}
}

func fixedNIC(t *testing.T, n *Network, name string, gbps float64) *NIC {
	t.Helper()
	nic, err := n.AddNIC(name, &FixedShaper{RateGbps: gbps}, gbps)
	if err != nil {
		t.Fatal(err)
	}
	return nic
}

func TestSingleFlowCompletion(t *testing.T) {
	n := NewNetwork()
	fixedNIC(t, n, "a", 10)
	fixedNIC(t, n, "b", 10)
	var doneAt float64
	_, err := n.StartFlow("a", "b", 100, math.Inf(1), func(now float64) { doneAt = now })
	if err != nil {
		t.Fatal(err)
	}
	runWhileActive(n, 1e6)
	// 100 Gbit at 10 Gbps = 10 s.
	if math.Abs(doneAt-10) > 1e-6 {
		t.Errorf("flow completed at %g, want 10", doneAt)
	}
	if n.ActiveFlows() != 0 {
		t.Errorf("%d flows still active", n.ActiveFlows())
	}
}

func TestTwoFlowsShareEgress(t *testing.T) {
	n := NewNetwork()
	fixedNIC(t, n, "src", 10)
	fixedNIC(t, n, "d1", 10)
	fixedNIC(t, n, "d2", 10)
	var t1, t2 float64
	_, _ = n.StartFlow("src", "d1", 50, math.Inf(1), func(now float64) { t1 = now })
	_, _ = n.StartFlow("src", "d2", 50, math.Inf(1), func(now float64) { t2 = now })
	runWhileActive(n, 1e6)
	// Each flow gets 5 Gbps: 10 s each.
	if math.Abs(t1-10) > 1e-6 || math.Abs(t2-10) > 1e-6 {
		t.Errorf("completions at %g, %g; want 10, 10", t1, t2)
	}
}

func TestMaxMinUnusedShareRedistributed(t *testing.T) {
	n := NewNetwork()
	fixedNIC(t, n, "src", 10)
	fixedNIC(t, n, "d1", 10)
	fixedNIC(t, n, "d2", 10)
	// Flow 1 capped at 2 Gbps by its own demand; flow 2 greedy.
	// Max-min should give flow 2 the remaining 8 Gbps, not 5.
	f1, _ := n.StartFlow("src", "d1", 1000, 2, nil)
	f2, _ := n.StartFlow("src", "d2", 1000, math.Inf(1), nil)
	n.RunUntil(1)
	if math.Abs(f1.rate-2) > 1e-9 {
		t.Errorf("capped flow rate = %g, want 2", f1.rate)
	}
	if math.Abs(f2.rate-8) > 1e-9 {
		t.Errorf("greedy flow rate = %g, want 8 (max-min)", f2.rate)
	}
}

func TestIngressBottleneck(t *testing.T) {
	n := NewNetwork()
	fixedNIC(t, n, "s1", 10)
	fixedNIC(t, n, "s2", 10)
	// Destination ingress is 10; two senders converge.
	fixedNIC(t, n, "dst", 10)
	f1, _ := n.StartFlow("s1", "dst", 1000, math.Inf(1), nil)
	f2, _ := n.StartFlow("s2", "dst", 1000, math.Inf(1), nil)
	n.RunUntil(1)
	if math.Abs(f1.rate-5) > 1e-9 || math.Abs(f2.rate-5) > 1e-9 {
		t.Errorf("converging rates = %g, %g; want 5, 5", f1.rate, f2.rate)
	}
}

func TestFlowConservation(t *testing.T) {
	// Volume accounting: moved bytes equal flow sizes at completion.
	n := NewNetwork()
	src := fixedNIC(t, n, "src", 10)
	fixedNIC(t, n, "dst", 10)
	_, _ = n.StartFlow("src", "dst", 123.25, math.Inf(1), nil)
	runWhileActive(n, 1e6)
	if math.Abs(src.MovedGbit()-123.25) > 1e-6 {
		t.Errorf("NIC moved %g Gbit, want 123.25", src.MovedGbit())
	}
}

func TestTokenBucketThrottleMidFlow(t *testing.T) {
	n := NewNetwork()
	sh, err := NewBucketShaper(tokenbucket.Params{
		BudgetGbit: 90, RefillGbps: 1, HighGbps: 10, LowGbps: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddNIC("src", sh, 10); err != nil {
		t.Fatal(err)
	}
	fixedNIC(t, n, "dst", 10)
	var doneAt float64
	_, _ = n.StartFlow("src", "dst", 150, math.Inf(1), func(now float64) { doneAt = now })
	runWhileActive(n, 1e6)
	// High phase: bucket empties after 90/(10-1) = 10 s, moving 100
	// Gbit. Remaining 50 Gbit at 1 Gbps: 50 s. Total 60 s.
	if math.Abs(doneAt-60) > 0.1 {
		t.Errorf("throttled flow completed at %g, want ~60", doneAt)
	}
}

func TestSampledShaperResampling(t *testing.T) {
	dist := simrand.MustQuantileDist(
		[]float64{0.01, 0.5, 0.99},
		[]float64{2, 5, 9},
	)
	src := simrand.New(33)
	sh, err := NewSampledShaper(dist, 5, src)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[float64]bool{}
	for i := 0; i < 20; i++ {
		seen[sh.currentGbps] = true
		sh.Idle(5)
	}
	if len(seen) < 5 {
		t.Errorf("capacity barely changed across periods: %d distinct values", len(seen))
	}
	for c := range seen {
		if c < 2 || c > 9 {
			t.Errorf("capacity %g outside distribution support", c)
		}
	}
}

func TestSampledShaperErrors(t *testing.T) {
	dist := simrand.MustQuantileDist([]float64{0.1, 0.9}, []float64{1, 2})
	src := simrand.New(1)
	if _, err := NewSampledShaper(nil, 5, src); err == nil {
		t.Error("nil dist should error")
	}
	if _, err := NewSampledShaper(dist, 0, src); err == nil {
		t.Error("zero period should error")
	}
	if _, err := NewSampledShaper(dist, 5, nil); err == nil {
		t.Error("nil source should error")
	}
}

func TestNetworkValidation(t *testing.T) {
	n := NewNetwork()
	if _, err := n.AddNIC("a", nil, 10); err == nil {
		t.Error("nil shaper should error")
	}
	if _, err := n.AddNIC("a", &FixedShaper{RateGbps: 1}, 0); err == nil {
		t.Error("zero ingress should error")
	}
	if _, err := n.AddNIC("a", &FixedShaper{RateGbps: 1}, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddNIC("a", &FixedShaper{RateGbps: 1}, 10); err == nil {
		t.Error("duplicate NIC should error")
	}
	if _, err := n.StartFlow("a", "missing", 1, 1, nil); err == nil {
		t.Error("unknown dst should error")
	}
	if _, err := n.StartFlow("missing", "a", 1, 1, nil); err == nil {
		t.Error("unknown src should error")
	}
	if _, err := n.StartFlow("a", "a", 1, 1, nil); err == nil {
		t.Error("self flow should error")
	}
	if _, err := n.AddNIC("b", &FixedShaper{RateGbps: 1}, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := n.StartFlow("a", "b", 0, 1, nil); err == nil {
		t.Error("zero size should error")
	}
	if _, err := n.StartFlow("a", "b", 1, 0, nil); err == nil {
		t.Error("zero demand should error")
	}
}

func TestRunUntilAdvancesIdleTime(t *testing.T) {
	n := NewNetwork()
	fixedNIC(t, n, "a", 10)
	n.RunUntil(100)
	if n.Now() != 100 {
		t.Errorf("idle network clock = %g", n.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("RunUntil into the past should panic")
		}
	}()
	n.RunUntil(50)
}

// TestFlowVolumeProperty: for random topologies and flow sizes, the
// sum of all NIC egress volumes equals the sum of completed flow
// sizes (fluid conservation).
func TestFlowVolumeProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 20 {
			return true
		}
		n := NewNetwork()
		if _, err := n.AddNIC("src", &FixedShaper{RateGbps: 10}, 10); err != nil {
			return false
		}
		if _, err := n.AddNIC("dst", &FixedShaper{RateGbps: 10}, 10); err != nil {
			return false
		}
		total := 0.0
		for _, s := range sizes {
			size := float64(s%500) + 1
			total += size
			if _, err := n.StartFlow("src", "dst", size, math.Inf(1), nil); err != nil {
				return false
			}
		}
		runWhileActive(n, 1e9)
		src, _ := n.NIC("src")
		return math.Abs(src.MovedGbit()-total) < 1e-3*total+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkNetworkManyFlows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := NewNetwork()
		for k := 0; k < 12; k++ {
			name := string(rune('a' + k))
			if _, err := n.AddNIC(name, &FixedShaper{RateGbps: 10}, 10); err != nil {
				b.Fatal(err)
			}
		}
		for k := 0; k < 12; k++ {
			src := string(rune('a' + k))
			dst := string(rune('a' + (k+1)%12))
			if _, err := n.StartFlow(src, dst, 100, math.Inf(1), nil); err != nil {
				b.Fatal(err)
			}
		}
		runWhileActive(n, 1e6)
	}
}
