package netem

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"cloudvar/internal/simrand"
	"cloudvar/internal/tokenbucket"
)

// The reference below is progressive filling as it was before frozen
// flows became flags and resources kept counts: assignRates with its
// map of frozen flows, run on every step, and the step that called it,
// verbatim but for the branch counts they add to hits and for flows
// being greedy, which never freeze at a demand.
// TestAssignRatesMatchesReference and FuzzAssignRates pin the filling
// to it, step for step and bit for bit.

// fillHits counts the filling's branches: rounds whose increment is
// zero, flows frozen on a saturated resource, and rounds that stop on a
// zero increment with nothing frozen; and, of the steps that begin with
// the flow set of the last fill, those that skip the fill and those
// that fill because a capacity changed.
type fillHits struct {
	zeroInc, saturated, stalled int
	skipped, capacityFills      int
}

// refAssignRates is Network.assignRates as it was.
func refAssignRates(n *Network, hits *fillHits) {
	type refResource struct {
		cap   float64
		flows []*flow
	}
	var resources []*refResource
	for _, nic := range n.nics {
		if len(nic.outFlows) > 0 {
			resources = append(resources, &refResource{
				cap:   nic.Egress.Rate(infDemand),
				flows: nic.outFlows,
			})
		}
		if len(nic.inFlows) > 0 {
			resources = append(resources, &refResource{
				cap:   nic.IngressGbps,
				flows: nic.inFlows,
			})
		}
	}

	frozen := make(map[*flow]bool, len(n.flows))
	for _, f := range n.flows {
		f.rate = 0
	}

	for len(frozen) < len(n.flows) {
		// Increment = min over resources of remaining/unfrozen count.
		inc := math.Inf(1)
		for _, r := range resources {
			unfrozen := 0
			for _, f := range r.flows {
				if !frozen[f] {
					unfrozen++
				}
			}
			if unfrozen == 0 {
				continue
			}
			if share := r.cap / float64(unfrozen); share < inc {
				inc = share
			}
		}
		if math.IsInf(inc, 1) || inc < 0 {
			break
		}
		if inc == 0 {
			hits.zeroInc++
		}

		// Raise unfrozen flows and charge resources.
		for _, r := range resources {
			for _, f := range r.flows {
				if !frozen[f] {
					r.cap -= inc
				}
			}
			if r.cap < 1e-12 {
				r.cap = 0
			}
		}
		for _, f := range n.flows {
			if !frozen[f] {
				f.rate += inc
			}
		}

		// Freeze flows on saturated resources.
		progressed := false
		for _, r := range resources {
			if r.cap == 0 {
				for _, f := range r.flows {
					if !frozen[f] {
						frozen[f] = true
						progressed = true
						hits.saturated++
					}
				}
			}
		}
		if !progressed {
			if inc == 0 {
				hits.stalled++
				// No capacity anywhere (e.g. a sampled shaper drew
				// zero): freeze everything at zero and let the step
				// bound on NextTransition move time forward.
				break
			}
		}
	}

	for _, nic := range n.nics {
		agg := 0.0
		for _, f := range nic.outFlows {
			agg += f.rate
		}
		nic.lastRate = agg
	}
}

// refStep is Network.step, filling with refAssignRates: it picks each
// step's length as step does, so the two fills meet the same steps.
func refStep(n *Network, maxDt float64, hits *fillHits) bool {
	refAssignRates(n, hits)

	dt := math.Min(maxDt, maxStep)
	moving := false
	for _, f := range n.flows {
		if f.rate > 0 {
			moving = true
			if t := f.remaining / f.rate; t < dt {
				dt = t
			}
		}
	}
	wake := math.Inf(1)
	for _, nic := range n.nics {
		if t := nic.Egress.NextTransition(nic.lastRate); t < wake {
			wake = t
		}
	}
	if !moving && wake >= maxDt {
		dt = maxDt
	}
	dt = math.Min(dt, wake)
	if dt < 1e-9 {
		dt = 1e-9 // floor to guarantee progress through regime flips
	}

	// Advance shapers with their achieved aggregate rates.
	for _, nic := range n.nics {
		if nic.lastRate > 0 {
			nic.movedGbit += nic.Egress.Transfer(nic.lastRate, dt)
		} else {
			nic.Egress.Idle(dt)
		}
	}

	// Advance flows and collect completions.
	var done []*flow
	for _, f := range n.flows {
		f.remaining -= f.rate * dt
		if f.remaining <= 1e-9 {
			f.remaining = 0
			done = append(done, f)
		}
	}
	n.now += dt
	for _, f := range done {
		n.removeFlow(f)
	}
	for _, f := range done {
		if f.onComplete != nil {
			f.onComplete(n.now, f.tag)
		}
	}
	return len(done) > 0
}

// fillNet is one network of a matched pair, with its NICs, the flows
// it started in start order, and its completions in completion order.
type fillNet struct {
	n     *Network
	nics  []*NIC
	flows []*flow
	done  []completion
}

// completion is the tag its onComplete received, the flow's place in
// start order from 1, and the bits of the time.
type completion struct {
	id     int
	atBits uint64
}

// start begins a flow; completing every third flow started starts one
// of half its size back from its destination.
func (net *fillNet) start(t *testing.T, from, to int, gbit float64) {
	id := len(net.flows) + 1
	err := net.n.StartFlow(net.nics[from], net.nics[to], gbit, func(now float64, tag int) {
		net.done = append(net.done, completion{tag, math.Float64bits(now)})
		if id%3 == 0 && gbit > 1 {
			net.start(t, to, from, gbit/2)
		}
	}, id)
	if err != nil {
		t.Fatal(err)
	}
	net.flows = append(net.flows, net.n.flows[len(net.n.flows)-1])
}

// fillPair builds two identical networks of 2–16 NICs whose egress is
// fixed, a small token bucket that throttles mid-run, or a sampled
// capacity that is zero three tenths of the time, and returns a draw
// of a flow between two distinct NICs.
func fillPair(t *testing.T, seed uint64, src *simrand.Source) (a, b *fillNet, draw func() (from, to int, gbit float64)) {
	t.Helper()
	nics := 2 + src.Intn(15)
	zeroOften := simrand.MustQuantileDist([]float64{0, 0.3, 1}, []float64{0, 0, 9})
	kinds, params, ingress := make([]int, nics), make([]float64, nics), make([]float64, nics)
	for i := range kinds {
		kinds[i], params[i], ingress[i] = src.Intn(3), src.Uniform(2, 10), src.Uniform(5, 10)
	}
	build := func() *fillNet {
		net := &fillNet{n: NewNetwork()}
		for i := range kinds {
			var sh Shaper = &FixedShaper{RateGbps: params[i]}
			var err error
			switch kinds[i] {
			case 1:
				sh, err = NewBucketShaper(tokenbucket.Params{BudgetGbit: 3 * params[i], RefillGbps: 1, HighGbps: 10, LowGbps: 1})
			case 2:
				sh, err = NewSampledShaper(zeroOften, params[i], simrand.New(seed).Substream(fmt.Sprint(i)))
			}
			if err != nil {
				t.Fatal(err)
			}
			nic, err := net.n.AddNIC(sh, ingress[i])
			if err != nil {
				t.Fatal(err)
			}
			net.nics = append(net.nics, nic)
		}
		return net
	}
	draw = func() (from, to int, gbit float64) {
		s := src.Intn(nics)
		d := (s + 1 + src.Intn(nics-1)) % nics
		return s, d, src.Uniform(1, 50)
	}
	return build(), build(), draw
}

// capBits appends the bits of the capacities each NIC's last fill read.
func capBits(dst []uint64, n *Network) []uint64 {
	for _, nic := range n.nics {
		dst = append(dst, math.Float64bits(nic.egressCap), math.Float64bits(nic.ingressCap))
	}
	return dst
}

// matchFill runs the networks fillPair builds from seed, one stepping
// with Network.step and one with refStep, until every flow has ended,
// and fails at the first step where whether a flow completed, the
// clock, a flow's rate or volume left, a NIC's rate or volume moved, or
// the completions' order or times differ in a single bit, or where a
// step that begins with the last fill's flows fills although no
// capacity changed or skips the fill although one did.
func matchFill(t *testing.T, seed uint64, hits *fillHits) {
	src := simrand.New(seed)
	a, b, draw := fillPair(t, seed, src)
	// Several flows per NIC, and with 2–3 NICs several per pair.
	for k := len(a.nics) * (2 + src.Intn(3)); k > 0; k-- {
		from, to, gbit := draw()
		a.start(t, from, to, gbit)
		b.start(t, from, to, gbit)
	}
	var before, after []uint64
	for step := 0; step < 200 || a.n.ActiveFlows() > 0; step++ {
		if step == 20000 {
			t.Fatalf("seed %d: %d flows still active after %d steps", seed, a.n.ActiveFlows(), step)
		}
		// A fill that runs builds the resource table; a skipped fill
		// leaves it as emptied here.
		a.n.res = a.n.res[:0]
		stale := a.n.stale
		before = capBits(before[:0], a.n)
		got, want := a.n.step(1e6), refStep(b.n, 1e6, hits)
		if !stale {
			same := slices.Equal(before, capBits(after[:0], a.n))
			if filled := len(a.n.res) > 0; filled == same {
				t.Fatalf("seed %d step %d: filled %v with the last fill's flows and capacities unchanged %v", seed, step, filled, same)
			}
			if same {
				hits.skipped++
			} else {
				hits.capacityFills++
			}
		}
		if got != want || !sameBits(a.n.Now(), b.n.Now()) {
			t.Fatalf("seed %d step %d: completed %v, now %v; reference %v, %v", seed, step, got, a.n.Now(), want, b.n.Now())
		}
		for i, f := range a.flows {
			g := b.flows[i]
			if !sameBits(f.rate, g.rate) || !sameBits(f.remaining, g.remaining) {
				t.Fatalf("seed %d step %d flow %d: rate %v, %v Gbit left; reference %v, %v",
					seed, step, i+1, f.rate, f.remaining, g.rate, g.remaining)
			}
		}
		for i, nic := range a.nics {
			ref := b.nics[i]
			if !sameBits(nic.CurrentRateGbps(), ref.CurrentRateGbps()) || !sameBits(nic.MovedGbit(), ref.MovedGbit()) {
				t.Fatalf("seed %d step %d NIC %d: rate %v, moved %v; reference %v, %v",
					seed, step, i, nic.CurrentRateGbps(), nic.MovedGbit(), ref.CurrentRateGbps(), ref.MovedGbit())
			}
		}
		if !slices.Equal(a.done, b.done) {
			t.Fatalf("seed %d step %d: completions %v, reference %v", seed, step, a.done, b.done)
		}
		// Flows arrive mid-run for the first 200 steps.
		for step < 200 && src.Bernoulli(0.05) {
			from, to, gbit := draw()
			a.start(t, from, to, gbit)
			b.start(t, from, to, gbit)
		}
	}
}

func TestAssignRatesMatchesReference(t *testing.T) {
	var hits fillHits
	for seed := uint64(1); seed <= 30; seed++ {
		matchFill(t, seed, &hits)
	}
	t.Logf("rounds with a zero increment %d, saturation freezes %d, skipped fills %d, fills on a capacity change alone %d",
		hits.zeroInc, hits.saturated, hits.skipped, hits.capacityFills)
	if hits.zeroInc == 0 || hits.saturated == 0 || hits.skipped == 0 || hits.capacityFills == 0 {
		t.Errorf("branches reached: %+v, want a zero increment, a saturation freeze, a skipped fill and a fill on a capacity change alone", hits)
	}
	// assignRates has no stalled-round break: a zero increment always
	// freezes a flow in its own round.
	if hits.stalled != 0 {
		t.Errorf("%d rounds froze nothing on a zero increment, want 0", hits.stalled)
	}
}

// TestAssignRatesEarlyStop covers the fill's early stop. A shaper whose
// rate turns negative makes the first increment negative, so the fill
// stops with its flow unfrozen: the flow's rate must drop to the level
// it reached, zero, as the reference's does, stay there while the fill
// is skipped, and return with the shaper's rate.
func TestAssignRatesEarlyStop(t *testing.T) {
	var nets [2]*Network
	var shapers [2]*FixedShaper
	var flows [2]*flow
	for i := range nets {
		nets[i], shapers[i] = NewNetwork(), &FixedShaper{RateGbps: 10}
		src, err := nets[i].AddNIC(shapers[i], 10)
		if err != nil {
			t.Fatal(err)
		}
		startFlow(t, nets[i], src, fixedNIC(t, nets[i], 10), 100, nil)
		flows[i] = nets[i].flows[0]
	}
	var hits fillHits
	for step, gbps := range []float64{10, -1, -1, 10} {
		shapers[0].RateGbps, shapers[1].RateGbps = gbps, gbps
		nets[0].step(1e6)
		refStep(nets[1], 1e6, &hits)
		if !sameBits(nets[0].Now(), nets[1].Now()) || !sameBits(flows[0].rate, flows[1].rate) {
			t.Fatalf("step %d at %g Gbps: now %v, rate %v; reference %v, %v", step, gbps, nets[0].Now(), flows[0].rate, nets[1].Now(), flows[1].rate)
		}
	}
	if flows[0].rate != 10 {
		t.Errorf("rate %v after the shaper's rate returned to 10", flows[0].rate)
	}
}

// FuzzAssignRates runs matchFill on the networks of any seed.
func FuzzAssignRates(f *testing.F) {
	for seed := uint64(1); seed <= 30; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		var hits fillHits
		matchFill(t, seed, &hits)
		if hits.stalled != 0 {
			t.Errorf("seed %d: %d rounds froze nothing on a zero increment, want 0", seed, hits.stalled)
		}
	})
}
