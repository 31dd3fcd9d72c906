// Package netem is a deterministic fluid-model network emulator. It
// plays the role Linux tc played in the paper (Section 4.2): a
// controllable substrate that reproduces cloud traffic-shaping
// behaviour — token buckets, per-core QoS, stochastic noise — without
// the confounding variability of a real cloud.
//
// Network moves greedy flows between the NICs AddNIC returns, at their
// max-min fair-share rates, through each NIC's shaped egress and its
// ingress line rate. Its virtual clock advances in exact steps, each
// ending at the next flow completion or shaper regime transition, so no
// integration error accumulates and a run replays bit for bit from the
// same inputs and seeds; RunUntilEvent is its one run loop. RunIperf
// and ServeRequests drive a single shaped path with one saturating
// stream or with a request stream; VNICModel adds the virtual NIC's
// latency and retransmission behaviour.
package netem

import (
	"fmt"
	"math"
)

// infDemand stands in for "unbounded demand" when querying shapers for
// their current capacity.
const infDemand = 1e12

// NIC is one endpoint's virtual network interface: a shaped egress
// path and a fixed-capacity ingress path. Cloud shapers act on egress
// (the paper's token buckets throttle the sending VM), while ingress
// is bounded by the instance's line rate.
type NIC struct {
	Egress      Shaper
	IngressGbps float64

	outFlows []*flow
	inFlows  []*flow

	// movedGbit accumulates all egress volume, for tracing.
	movedGbit float64
	// lastRate is the aggregate egress rate of the previous step.
	lastRate float64
	// egressRes and ingressRes index this NIC's resources in the
	// table of the current assignRates.
	egressRes, ingressRes int
	// egressCap and ingressCap are the capacities the last
	// assignRates read for this NIC while it had flows.
	egressCap, ingressCap float64
}

// MovedGbit returns the cumulative egress volume in Gbit.
func (n *NIC) MovedGbit() float64 { return n.movedGbit }

// CurrentRateGbps returns the aggregate egress rate assigned in the
// most recent simulation step.
func (n *NIC) CurrentRateGbps() float64 { return n.lastRate }

// flow is a greedy fluid-model data transfer between two NICs: it takes
// whatever max-min share its source's egress and its destination's
// ingress leave it.
type flow struct {
	src, dst   *NIC
	remaining  float64 // Gbit left to move
	onComplete func(now float64, tag int)
	tag        int // handed to onComplete

	// rate is the current max-min assigned rate. During assignRates a
	// negative rate marks a flow whose rate may still grow; a frozen
	// flow holds the level it froze at, never negative.
	rate float64
}

// Network is the fluid-flow simulator: flows progress at their max-min
// fair-share rates through shaped NICs, with the virtual clock
// advancing in exact steps bounded by flow completions and shaper
// regime transitions, so no integration error accumulates.
type Network struct {
	now   float64
	nics  []*NIC // in AddNIC order, the order every pass visits them
	flows []*flow
	// stale is set when a flow starts or ends or a NIC is added, so
	// the next assignRates fills.
	stale bool

	// Buffers reused from step to step: the resource table and the
	// step's completions.
	res  []resource
	done []*flow
}

// maxStep caps a single advance, in seconds.
const maxStep = 1

// NewNetwork returns an empty network at virtual time zero.
func NewNetwork() *Network { return &Network{} }

// Now returns the virtual time in seconds.
func (n *Network) Now() float64 { return n.now }

// AddNIC adds a NIC with the given egress shaper and ingress line rate
// and returns it; flows run between the NICs it returns.
func (n *Network) AddNIC(egress Shaper, ingressGbps float64) (*NIC, error) {
	if egress == nil {
		return nil, fmt.Errorf("netem: NIC needs an egress shaper")
	}
	if ingressGbps <= 0 {
		return nil, fmt.Errorf("netem: NIC needs positive ingress capacity, got %g", ingressGbps)
	}
	nic := &NIC{Egress: egress, IngressGbps: ingressGbps}
	n.nics = append(n.nics, nic)
	n.stale = true
	return nic, nil
}

// StartFlow begins moving gbit of data from src to dst, two NICs of n,
// as a greedy flow. onComplete, if non-nil, fires when the flow
// finishes, with the virtual completion time and tag, so one handler
// can serve many flows.
func (n *Network) StartFlow(src, dst *NIC, gbit float64, onComplete func(now float64, tag int), tag int) error {
	if src == dst {
		return fmt.Errorf("netem: flow from a NIC to itself")
	}
	if gbit <= 0 {
		return fmt.Errorf("netem: non-positive flow size %g", gbit)
	}
	f := &flow{src: src, dst: dst, remaining: gbit, onComplete: onComplete, tag: tag}
	n.flows = append(n.flows, f)
	src.outFlows = append(src.outFlows, f)
	dst.inFlows = append(dst.inFlows, f)
	n.stale = true
	return nil
}

// ActiveFlows returns the number of in-flight flows.
func (n *Network) ActiveFlows() int { return len(n.flows) }

// resource is one capacity that flows share: a NIC's shaped egress or
// its ingress line rate.
type resource struct {
	cap   float64
	flows []*flow
	// unfrozen counts the flows whose rate may still grow.
	unfrozen int
}

// assignRates computes max-min fair rates for all active flows via
// progressive filling over two resource classes: each NIC's shaped
// egress capacity and each NIC's ingress capacity. This is the
// production sharing model; the aggregate-pipe simplification it is
// benchmarked against lives in the ablation suite.
//
// The rates depend only on the flow set and the capacities, so when no
// flow has started or ended since the last fill and every capacity
// reads the same bits as it did then, the rates that fill assigned
// still hold and the fill is skipped.
//
// Every unfrozen flow is raised from zero by the same increments in the
// same order, so its rate is the running level, which a flow keeps when
// it freezes. A flow is unfrozen while its rate is negative, and each
// resource counts its unfrozen flows; freezing a flow decrements the
// counts of its source's egress and its destination's ingress. A round
// charges a resource inc by one subtraction per unfrozen flow: a single
// inc*count rounds differently, and every Spark timing pinned in
// internal/workloads would move.
func (n *Network) assignRates() {
	stale := n.stale
	for _, nic := range n.nics {
		if len(nic.outFlows) > 0 {
			c := nic.Egress.Rate(infDemand)
			stale = stale || math.Float64bits(c) != math.Float64bits(nic.egressCap)
			nic.egressCap = c
		}
		if len(nic.inFlows) > 0 {
			c := nic.IngressGbps
			stale = stale || math.Float64bits(c) != math.Float64bits(nic.ingressCap)
			nic.ingressCap = c
		}
	}
	if !stale {
		return
	}
	n.stale = false
	// Only a fill that runs builds the resource table, from the
	// capacities just read.
	n.res = n.res[:0]
	for _, nic := range n.nics {
		if len(nic.outFlows) > 0 {
			nic.egressRes = len(n.res)
			n.res = append(n.res, resource{cap: nic.egressCap, flows: nic.outFlows, unfrozen: len(nic.outFlows)})
		}
		if len(nic.inFlows) > 0 {
			nic.ingressRes = len(n.res)
			n.res = append(n.res, resource{cap: nic.ingressCap, flows: nic.inFlows, unfrozen: len(nic.inFlows)})
		}
	}
	res := n.res

	frozen := 0
	level := 0.0
	freeze := func(f *flow) {
		f.rate = level
		frozen++
		res[f.src.egressRes].unfrozen--
		res[f.dst.ingressRes].unfrozen--
	}
	for _, f := range n.flows {
		f.rate = -1
	}

	for frozen < len(n.flows) {
		// Increment = min over resources of remaining/unfrozen count.
		inc := math.Inf(1)
		for i := range res {
			r := &res[i]
			if r.unfrozen == 0 {
				continue
			}
			if share := r.cap / float64(r.unfrozen); share < inc {
				inc = share
			}
		}
		if math.IsInf(inc, 1) || inc < 0 {
			// The flows left unfrozen keep the level they reached.
			for _, f := range n.flows {
				if f.rate < 0 {
					f.rate = level
				}
			}
			break
		}

		// Raise unfrozen flows and charge resources.
		for i := range res {
			r := &res[i]
			for k := r.unfrozen; k > 0; k-- {
				r.cap -= inc
			}
			if r.cap < 1e-12 {
				r.cap = 0
			}
		}
		level += inc

		// Freeze flows on saturated resources. Every round freezes a
		// flow: a zero increment comes from a zero-capacity resource,
		// and freezes its flows here.
		for i := range res {
			r := &res[i]
			if r.cap == 0 && r.unfrozen > 0 {
				for _, f := range r.flows {
					if f.rate < 0 {
						freeze(f)
					}
				}
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

// step advances the simulation by one exact interval, at most maxDt
// seconds, and reports whether a flow completed in it.
func (n *Network) step(maxDt float64) bool {
	n.assignRates()

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
		// A stall no shaper ends before maxDt lasts the whole interval:
		// one step, not one per maxStep.
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
	done := n.done[:0]
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
	// A callback that steps the network collects into its own slice.
	n.done = nil
	for _, f := range done {
		if f.onComplete != nil {
			f.onComplete(n.now, f.tag)
		}
	}
	completed := len(done) > 0
	clear(done)
	n.done = done[:0]
	return completed
}

func (n *Network) removeFlow(f *flow) {
	n.stale = true
	n.flows = removeFromSlice(n.flows, f)
	f.src.outFlows = removeFromSlice(f.src.outFlows, f)
	f.dst.inFlows = removeFromSlice(f.dst.inFlows, f)
}

func removeFromSlice(s []*flow, f *flow) []*flow {
	for i, v := range s {
		if v == f {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// RunUntil advances virtual time to exactly t, progressing flows and
// shapers along the way. It takes back the rounding error by which a
// step that ends a flow at t may pass it.
func (n *Network) RunUntil(t float64) {
	for n.RunUntilEvent(t) && n.now < t {
	}
	n.now = t
}

// RunUntilEvent advances until at least one flow completes or t is
// reached, whichever is first, and reports whether a completion
// occurred; a step that ends a flow at t may leave the clock a rounding
// error past t. With no active flows it advances directly to t (shapers
// idle and refill along the way). Higher-level simulators (the Spark
// engine) use this to interleave network progress with compute events.
func (n *Network) RunUntilEvent(t float64) bool {
	if t < n.now {
		panic(fmt.Sprintf("netem: run to %g before now %g", t, n.now))
	}
	for n.now < t-1e-12 {
		if len(n.flows) == 0 {
			// Nothing in flight: idle all shapers across the gap in
			// one jump.
			gap := t - n.now
			for _, nic := range n.nics {
				nic.Egress.Idle(gap)
				nic.lastRate = 0
			}
			break
		}
		if n.step(t - n.now) {
			return true
		}
	}
	n.now = t
	return false
}
