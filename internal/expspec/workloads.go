package expspec

// The workloads: section — the declarative face of the multi-client
// traffic engine (internal/workload). A section names clients with a
// share of an aggregate request rate, an SLO class and an arrival
// process; Compile lowers it to a workload.Spec carried in the
// fleet.CampaignSpec, so every campaign cell replays the same traffic
// mix over its measured path.
//
// Identity: the section changes what the experiment computes, so it is
// part of the document hash and (through fleet.CampaignSpec.Workload)
// of the store's SpecKey/MatrixKey. Trace clients inline their
// recorded arrival times — a trace file referenced by a spec file is
// resolved at decode time — keeping identity content-addressed.

import (
	"fmt"
	"math"

	"cloudvar/internal/workload"
)

// WorkloadSection is the structured workloads: section of a document.
type WorkloadSection struct {
	// AggregateRPS is the total offered request rate in
	// requests/second, split across clients by rateFraction.
	AggregateRPS float64 `json:"aggregateRps"`
	// RequestKB is the per-request payload in KiB; 0 canonicalizes to
	// workload.DefaultRequestKB.
	RequestKB float64 `json:"requestKB,omitempty"`
	// Clients are the traffic sources, in declaration order.
	Clients []WorkloadClient `json:"clients"`
}

// WorkloadClient is one named traffic source of a workloads: section.
type WorkloadClient struct {
	// ID names the client; unique within the section, it keys the
	// client's random substream.
	ID string `json:"id"`
	// RateFraction is the client's share of aggregateRps, in (0, 1];
	// fractions sum to 1 across the section.
	RateFraction float64 `json:"rateFraction"`
	// SLOClass groups clients for per-class reporting; empty
	// canonicalizes to workload.DefaultClass.
	SLOClass string `json:"sloClass,omitempty"`
	// Arrival selects the inter-arrival process.
	Arrival WorkloadArrival `json:"arrival"`
}

// WorkloadArrival selects an arrival process; exactly the fields of
// the chosen process may be set.
type WorkloadArrival struct {
	// Process is one of "poisson", "gamma", "weibull" or "trace".
	Process string `json:"process"`
	// CV is the gamma coefficient of variation (gamma only, > 0).
	CV float64 `json:"cv,omitempty"`
	// Shape is the Weibull shape (weibull only, > 0).
	Shape float64 `json:"shape,omitempty"`
	// Times are recorded arrival times in seconds (trace only,
	// non-decreasing). In a spec file they may also come from a trace:
	// CSV path, inlined at decode time.
	Times []float64 `json:"times,omitempty"`
}

// PoissonArrival returns a memoryless arrival process (CV = 1).
func PoissonArrival() WorkloadArrival {
	return WorkloadArrival{Process: workload.Poisson}
}

// GammaArrival returns gamma-distributed inter-arrivals with the given
// coefficient of variation (cv > 1 is bursty, cv < 1 regular).
func GammaArrival(cv float64) WorkloadArrival {
	return WorkloadArrival{Process: workload.Gamma, CV: cv}
}

// canonical validates and defaults the workloads section, with errors
// naming full field paths. It mirrors workload.Spec.Validate — the
// engine-level gate — but reports in the document's vocabulary.
func (w WorkloadSection) canonical() (WorkloadSection, error) {
	out := w
	if w.AggregateRPS <= 0 {
		return WorkloadSection{}, fmt.Errorf("workloads.aggregateRps: %g must be positive", w.AggregateRPS)
	}
	if w.RequestKB < 0 {
		return WorkloadSection{}, fmt.Errorf("workloads.requestKB: %g must be >= 0", w.RequestKB)
	}
	if w.RequestKB == 0 {
		out.RequestKB = workload.DefaultRequestKB
	}
	if len(w.Clients) == 0 {
		return WorkloadSection{}, fmt.Errorf("workloads.clients: required (name at least one client)")
	}
	out.Clients = make([]WorkloadClient, len(w.Clients))
	seen := make(map[string]bool)
	sum := 0.0
	for i, c := range w.Clients {
		oc := c
		path := fmt.Sprintf("workloads.clients[%d]", i)
		if !workload.ValidClientID(c.ID) {
			return WorkloadSection{}, fmt.Errorf("%s.id: %q is not a valid client id", path, c.ID)
		}
		if seen[c.ID] {
			return WorkloadSection{}, fmt.Errorf("%s.id: duplicate client %q", path, c.ID)
		}
		seen[c.ID] = true
		if c.RateFraction <= 0 || c.RateFraction > 1 {
			return WorkloadSection{}, fmt.Errorf("%s.rateFraction: %g outside (0, 1]", path, c.RateFraction)
		}
		sum += c.RateFraction
		if oc.SLOClass == "" {
			oc.SLOClass = workload.DefaultClass
		}
		if err := (workload.Arrival{
			Process: c.Arrival.Process, CV: c.Arrival.CV, Shape: c.Arrival.Shape, Times: c.Arrival.Times,
		}).Validate(); err != nil {
			return WorkloadSection{}, fmt.Errorf("%s.arrival: %w", path, err)
		}
		oc.Arrival.Times = append([]float64(nil), c.Arrival.Times...)
		out.Clients[i] = oc
	}
	if math.Abs(sum-1) > 1e-6 {
		return WorkloadSection{}, fmt.Errorf("workloads.clients: rate fractions sum to %g, want 1", sum)
	}
	return out, nil
}

// compile lowers a canonical section to the engine's spec.
func (w WorkloadSection) compile() *workload.Spec {
	spec := &workload.Spec{
		AggregateRPS: w.AggregateRPS,
		RequestKB:    w.RequestKB,
		Clients:      make([]workload.Client, len(w.Clients)),
	}
	for i, c := range w.Clients {
		spec.Clients[i] = workload.Client{
			ID:           c.ID,
			RateFraction: c.RateFraction,
			SLOClass:     c.SLOClass,
			Arrival: workload.Arrival{
				Process: c.Arrival.Process,
				CV:      c.Arrival.CV,
				Shape:   c.Arrival.Shape,
				Times:   append([]float64(nil), c.Arrival.Times...),
			},
		}
	}
	return spec
}
