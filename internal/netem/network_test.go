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

func fixedNIC(t *testing.T, n *Network, gbps float64) *NIC {
	t.Helper()
	nic, err := n.AddNIC(&FixedShaper{RateGbps: gbps}, gbps)
	if err != nil {
		t.Fatal(err)
	}
	return nic
}

// startFlow starts a flow that must be valid, with tag 0.
func startFlow(t *testing.T, n *Network, src, dst *NIC, gbit float64, onComplete func(now float64, tag int)) {
	t.Helper()
	if err := n.StartFlow(src, dst, gbit, onComplete, 0); err != nil {
		t.Fatal(err)
	}
}

func TestSingleFlowCompletion(t *testing.T) {
	n := NewNetwork()
	a, b := fixedNIC(t, n, 10), fixedNIC(t, n, 10)
	var doneAt float64
	startFlow(t, n, a, b, 100, func(now float64, _ int) { doneAt = now })
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
	src, d1, d2 := fixedNIC(t, n, 10), fixedNIC(t, n, 10), fixedNIC(t, n, 10)
	var t1, t2 float64
	startFlow(t, n, src, d1, 50, func(now float64, _ int) { t1 = now })
	startFlow(t, n, src, d2, 50, func(now float64, _ int) { t2 = now })
	runWhileActive(n, 1e6)
	// Each flow gets 5 Gbps: 10 s each.
	if math.Abs(t1-10) > 1e-6 || math.Abs(t2-10) > 1e-6 {
		t.Errorf("completions at %g, %g; want 10, 10", t1, t2)
	}
}

// TestFlowTagsReachOneHandler: flows started with one handler tell it
// apart by their tags. Three flows of 10, 20 and 30 Gbit share a
// 10 Gbps egress, so they end at 3, 5 and 6 s.
func TestFlowTagsReachOneHandler(t *testing.T) {
	n := NewNetwork()
	src := fixedNIC(t, n, 10)
	type done struct {
		tag int
		at  float64
	}
	var got []done
	handler := func(now float64, tag int) { got = append(got, done{tag, now}) }
	for i, gbit := range []float64{10, 20, 30} {
		if err := n.StartFlow(src, fixedNIC(t, n, 10), gbit, handler, 7+i); err != nil {
			t.Fatal(err)
		}
	}
	runWhileActive(n, 1e6)
	want := []done{{7, 3}, {8, 5}, {9, 6}}
	if len(got) != len(want) {
		t.Fatalf("completions %v, want %v", got, want)
	}
	for i := range want {
		if got[i].tag != want[i].tag || math.Abs(got[i].at-want[i].at) > 1e-6 {
			t.Errorf("completions %v, want %v", got, want)
		}
	}
}

func TestMaxMinUnusedShareRedistributed(t *testing.T) {
	n := NewNetwork()
	src, d2 := fixedNIC(t, n, 10), fixedNIC(t, n, 10)
	d1, err := n.AddNIC(&FixedShaper{RateGbps: 10}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Flow 1 is held at 2 Gbps by its destination's ingress; flow 2
	// has no other bottleneck. Max-min should give flow 2 the remaining
	// 8 Gbps of the shared egress, not 5.
	startFlow(t, n, src, d1, 1000, nil)
	startFlow(t, n, src, d2, 1000, nil)
	n.RunUntil(1)
	if f1 := n.flows[0]; math.Abs(f1.rate-2) > 1e-9 {
		t.Errorf("ingress-bound flow rate = %g, want 2", f1.rate)
	}
	if f2 := n.flows[1]; math.Abs(f2.rate-8) > 1e-9 {
		t.Errorf("egress-bound flow rate = %g, want 8 (max-min)", f2.rate)
	}
}

func TestIngressBottleneck(t *testing.T) {
	n := NewNetwork()
	s1, s2 := fixedNIC(t, n, 10), fixedNIC(t, n, 10)
	// Destination ingress is 10; two senders converge.
	dst := fixedNIC(t, n, 10)
	startFlow(t, n, s1, dst, 1000, nil)
	startFlow(t, n, s2, dst, 1000, nil)
	n.RunUntil(1)
	if f1, f2 := n.flows[0], n.flows[1]; math.Abs(f1.rate-5) > 1e-9 || math.Abs(f2.rate-5) > 1e-9 {
		t.Errorf("converging rates = %g, %g; want 5, 5", f1.rate, f2.rate)
	}
}

func TestFlowConservation(t *testing.T) {
	// Volume accounting: moved bytes equal flow sizes at completion.
	n := NewNetwork()
	src, dst := fixedNIC(t, n, 10), fixedNIC(t, n, 10)
	startFlow(t, n, src, dst, 123.25, nil)
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
	src, err := n.AddNIC(sh, 10)
	if err != nil {
		t.Fatal(err)
	}
	dst := fixedNIC(t, n, 10)
	var doneAt float64
	startFlow(t, n, src, dst, 150, func(now float64, _ int) { doneAt = now })
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
	if _, err := n.AddNIC(nil, 10); err == nil {
		t.Error("nil shaper should error")
	}
	if _, err := n.AddNIC(&FixedShaper{RateGbps: 1}, 0); err == nil {
		t.Error("zero ingress should error")
	}
	a, b := fixedNIC(t, n, 1), fixedNIC(t, n, 1)
	if err := n.StartFlow(a, a, 1, nil, 0); err == nil {
		t.Error("self flow should error")
	}
	if err := n.StartFlow(a, b, 0, nil, 0); err == nil {
		t.Error("zero size should error")
	}
	if n.ActiveFlows() != 0 {
		t.Errorf("%d flows started by invalid calls", n.ActiveFlows())
	}
}

func TestRunUntilAdvancesIdleTime(t *testing.T) {
	n := NewNetwork()
	fixedNIC(t, n, 10)
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

// TestRunUntilOvershoot: a step to the target time can end one ulp
// past it, as now+(t-now) rounds up, and a flow that ends in that step
// must not leave RunUntil past its target or make it panic.
func TestRunUntilOvershoot(t *testing.T) {
	n := NewNetwork()
	src, dst := fixedNIC(t, n, 10), fixedNIC(t, n, 10)
	start, end := 3*0x1p-54, 0.5+3*0x1p-53
	if start+(end-start) <= end {
		t.Fatal("the step from start to end does not overshoot end")
	}
	n.RunUntil(start)
	// The flow needs 1e-11 s more than the step: it ends within the
	// completion threshold.
	startFlow(t, n, src, dst, 10*(end-start)+1e-10, nil)
	n.RunUntil(end)
	if n.Now() != end || n.ActiveFlows() != 0 {
		t.Errorf("now %v with %d flows, want %v with none", n.Now(), n.ActiveFlows(), end)
	}
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
		src, dst := fixedNIC(t, n, 10), fixedNIC(t, n, 10)
		total := 0.0
		for _, s := range sizes {
			size := float64(s%500) + 1
			total += size
			if err := n.StartFlow(src, dst, size, nil, 0); err != nil {
				return false
			}
		}
		runWhileActive(n, 1e9)
		return math.Abs(src.MovedGbit()-total) < 1e-3*total+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkNetworkManyFlows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := NewNetwork()
		nics := make([]*NIC, 12)
		for k := range nics {
			nic, err := n.AddNIC(&FixedShaper{RateGbps: 10}, 10)
			if err != nil {
				b.Fatal(err)
			}
			nics[k] = nic
		}
		for k, src := range nics {
			if err := n.StartFlow(src, nics[(k+1)%len(nics)], 100, nil, 0); err != nil {
				b.Fatal(err)
			}
		}
		runWhileActive(n, 1e6)
	}
}
