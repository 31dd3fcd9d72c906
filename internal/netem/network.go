// Package netem is a deterministic fluid-model network emulator. It
// plays the role Linux tc played in the paper (Section 4.2): a
// controllable substrate that reproduces cloud traffic-shaping
// behaviour — token buckets, per-core QoS, stochastic noise — without
// the confounding variability of a real cloud.
//
// Network moves flows at their max-min fair-share rates through NICs
// whose egress is a Shaper. Its virtual clock advances in exact steps,
// each ending at the next flow completion or shaper regime transition,
// so no integration error accumulates and a run replays bit for bit
// from the same inputs and seeds. RunIperf and ServeRequests drive a
// single shaped path with one saturating stream or with a request
// stream; VNICModel adds the virtual NIC's latency and retransmission
// behaviour.
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
	Name        string
	Egress      Shaper
	IngressGbps float64

	outFlows []*Flow
	inFlows  []*Flow

	// movedGbit accumulates all egress volume, for tracing.
	movedGbit float64
	// lastRate is the aggregate egress rate of the previous step.
	lastRate float64
}

// MovedGbit returns the cumulative egress volume in Gbit.
func (n *NIC) MovedGbit() float64 { return n.movedGbit }

// CurrentRateGbps returns the aggregate egress rate assigned in the
// most recent simulation step.
func (n *NIC) CurrentRateGbps() float64 { return n.lastRate }

// Flow is a fluid-model data transfer between two NICs.
type Flow struct {
	ID        int
	Src, Dst  *NIC
	Remaining float64 // Gbit left to move
	// Demand caps the flow's rate (Gbps); +Inf for greedy flows.
	Demand float64
	// OnComplete, if non-nil, fires when the flow finishes, with the
	// virtual completion time.
	OnComplete func(now float64)

	StartedAt   float64
	CompletedAt float64

	rate float64 // current max-min assigned rate
}

// Network is the fluid-flow simulator: flows progress at their max-min
// fair-share rates through shaped NICs, with the virtual clock
// advancing in exact steps bounded by flow completions and shaper
// regime transitions, so no integration error accumulates.
type Network struct {
	now       float64
	nics      map[string]*NIC
	order     []*NIC // deterministic iteration order
	flows     []*Flow
	nextID    int
	completed int
	MaxStep   float64 // cap on a single advance; default 1 s
}

// NewNetwork returns an empty network at virtual time zero.
func NewNetwork() *Network {
	return &Network{nics: make(map[string]*NIC), MaxStep: 1}
}

// Now returns the virtual time in seconds.
func (n *Network) Now() float64 { return n.now }

// AddNIC registers a NIC. Names must be unique.
func (n *Network) AddNIC(name string, egress Shaper, ingressGbps float64) (*NIC, error) {
	if _, dup := n.nics[name]; dup {
		return nil, fmt.Errorf("netem: duplicate NIC %q", name)
	}
	if egress == nil {
		return nil, fmt.Errorf("netem: NIC %q needs an egress shaper", name)
	}
	if ingressGbps <= 0 {
		return nil, fmt.Errorf("netem: NIC %q needs positive ingress capacity", name)
	}
	nic := &NIC{Name: name, Egress: egress, IngressGbps: ingressGbps}
	n.nics[name] = nic
	n.order = append(n.order, nic)
	return nic, nil
}

// NIC looks up a NIC by name.
func (n *Network) NIC(name string) (*NIC, bool) {
	nic, ok := n.nics[name]
	return nic, ok
}

// StartFlow begins moving gbit of data from src to dst. demand caps
// the flow rate (pass math.Inf(1) for greedy). The returned flow is
// live until its Remaining reaches zero.
func (n *Network) StartFlow(src, dst string, gbit, demand float64, onComplete func(now float64)) (*Flow, error) {
	s, ok := n.nics[src]
	if !ok {
		return nil, fmt.Errorf("netem: unknown source NIC %q", src)
	}
	d, ok := n.nics[dst]
	if !ok {
		return nil, fmt.Errorf("netem: unknown destination NIC %q", dst)
	}
	if s == d {
		return nil, fmt.Errorf("netem: flow from %q to itself", src)
	}
	if gbit <= 0 {
		return nil, fmt.Errorf("netem: non-positive flow size %g", gbit)
	}
	if demand <= 0 {
		return nil, fmt.Errorf("netem: non-positive flow demand %g", demand)
	}
	n.nextID++
	f := &Flow{
		ID: n.nextID, Src: s, Dst: d,
		Remaining: gbit, Demand: demand,
		OnComplete: onComplete, StartedAt: n.now,
	}
	n.flows = append(n.flows, f)
	s.outFlows = append(s.outFlows, f)
	d.inFlows = append(d.inFlows, f)
	return f, nil
}

// ActiveFlows returns the number of in-flight flows.
func (n *Network) ActiveFlows() int { return len(n.flows) }

// assignRates computes max-min fair rates for all active flows via
// progressive filling over two resource classes: each NIC's shaped
// egress capacity and each NIC's ingress capacity. This is the
// production sharing model; the aggregate-pipe simplification it is
// benchmarked against lives in the ablation suite.
func (n *Network) assignRates() {
	type resource struct {
		cap   float64
		flows []*Flow
	}
	var resources []*resource
	for _, nic := range n.order {
		if len(nic.outFlows) > 0 {
			resources = append(resources, &resource{
				cap:   nic.Egress.Rate(infDemand),
				flows: nic.outFlows,
			})
		}
		if len(nic.inFlows) > 0 {
			resources = append(resources, &resource{
				cap:   nic.IngressGbps,
				flows: nic.inFlows,
			})
		}
	}

	frozen := make(map[*Flow]bool, len(n.flows))
	for _, f := range n.flows {
		f.rate = 0
	}

	for len(frozen) < len(n.flows) {
		// Increment = min over resources of remaining/unfrozen count,
		// and over flows of demand headroom.
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
		for _, f := range n.flows {
			if !frozen[f] {
				if head := f.Demand - f.rate; head < inc {
					inc = head
				}
			}
		}
		if math.IsInf(inc, 1) || inc < 0 {
			break
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

		// Freeze flows at demand or on saturated resources.
		progressed := false
		for _, r := range resources {
			if r.cap == 0 {
				for _, f := range r.flows {
					if !frozen[f] {
						frozen[f] = true
						progressed = true
					}
				}
			}
		}
		for _, f := range n.flows {
			if !frozen[f] && f.rate >= f.Demand-1e-12 {
				frozen[f] = true
				progressed = true
			}
		}
		if !progressed {
			if inc == 0 {
				// No capacity anywhere (e.g. a sampled shaper drew
				// zero): freeze everything at zero and let the step
				// bound on NextTransition move time forward.
				break
			}
		}
	}

	for _, nic := range n.order {
		agg := 0.0
		for _, f := range nic.outFlows {
			agg += f.rate
		}
		nic.lastRate = agg
	}
}

// step advances the simulation by one exact interval, at most
// maxDt seconds, and returns the interval taken.
func (n *Network) step(maxDt float64) float64 {
	n.assignRates()

	dt := math.Min(maxDt, n.MaxStep)
	for _, f := range n.flows {
		if f.rate > 0 {
			if t := f.Remaining / f.rate; t < dt {
				dt = t
			}
		}
	}
	for _, nic := range n.order {
		if t := nic.Egress.NextTransition(nic.lastRate); t < dt {
			dt = t
		}
	}
	if dt < 1e-9 {
		dt = 1e-9 // floor to guarantee progress through regime flips
	}

	// Advance shapers with their achieved aggregate rates.
	for _, nic := range n.order {
		if nic.lastRate > 0 {
			nic.movedGbit += nic.Egress.Transfer(nic.lastRate, dt)
		} else {
			nic.Egress.Idle(dt)
		}
	}

	// Advance flows and collect completions.
	var done []*Flow
	for _, f := range n.flows {
		f.Remaining -= f.rate * dt
		if f.Remaining <= 1e-9 {
			f.Remaining = 0
			f.CompletedAt = n.now + dt
			done = append(done, f)
		}
	}
	n.now += dt
	n.completed += len(done)
	for _, f := range done {
		n.removeFlow(f)
	}
	for _, f := range done {
		if f.OnComplete != nil {
			f.OnComplete(n.now)
		}
	}
	return dt
}

func (n *Network) removeFlow(f *Flow) {
	n.flows = removeFromSlice(n.flows, f)
	f.Src.outFlows = removeFromSlice(f.Src.outFlows, f)
	f.Dst.inFlows = removeFromSlice(f.Dst.inFlows, f)
}

func removeFromSlice(s []*Flow, f *Flow) []*Flow {
	for i, v := range s {
		if v == f {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// RunUntil advances virtual time to exactly t, progressing flows and
// shapers along the way.
func (n *Network) RunUntil(t float64) {
	if t < n.now {
		panic(fmt.Sprintf("netem: RunUntil(%g) before now %g", t, n.now))
	}
	for n.now < t-1e-12 {
		if len(n.flows) == 0 {
			gap := t - n.now
			for _, nic := range n.order {
				nic.Egress.Idle(gap)
				nic.lastRate = 0
			}
			n.now = t
			break
		}
		n.step(t - n.now)
	}
	n.now = t
}

// RunUntilEvent advances until at least one flow completes or t is
// reached, whichever is first, and reports whether a completion
// occurred. With no active flows it advances directly to t (shapers
// idle and refill along the way). Higher-level simulators (the Spark
// engine) use this to interleave network progress with compute events.
func (n *Network) RunUntilEvent(t float64) bool {
	if t < n.now {
		panic(fmt.Sprintf("netem: RunUntilEvent(%g) before now %g", t, n.now))
	}
	before := n.completed
	for n.now < t-1e-12 {
		if len(n.flows) == 0 {
			// Nothing in flight: idle all shapers across the gap in
			// one jump.
			gap := t - n.now
			for _, nic := range n.order {
				nic.Egress.Idle(gap)
				nic.lastRate = 0
			}
			n.now = t
			return false
		}
		n.step(t - n.now)
		if n.completed > before {
			return true
		}
	}
	n.now = t
	return false
}
