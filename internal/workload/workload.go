// Package workload is the deterministic multi-client traffic engine's
// data layer: named clients with SLO classes and arrival processes,
// compiled into reproducible per-client request streams.
//
// The paper measures cloud variability with one synthetic iperf flow,
// but its conclusions are consumed by heterogeneous applications:
// latency-critical services sample the network very differently from
// batch transfers, and "When Should I Run My Application Benchmark?"
// (arXiv:2504.11826) shows conclusions flip depending on when and how
// traffic samples the network. A workload Spec describes that traffic
// mix declaratively — each client gets a share of an aggregate request
// rate and an inter-arrival process (Poisson, gamma with a chosen
// coefficient of variation, Weibull, or a recorded trace) — and the
// engine derives every client's stream from a named random substream,
// so the offered traffic is bit-identical across worker counts, resume
// boundaries and machines.
//
// The package deliberately sits at the bottom of the stack (its only
// repo dependencies are simrand and stats): netem serves the streams
// over shaped paths, cloudmodel glues the two, fleet fans cells out,
// and internal/expspec compiles the spec document's workloads: section
// into a Spec.
package workload

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
)

// Arrival process names.
const (
	// Poisson is memoryless arrivals (exponential gaps, CV = 1) — the
	// classic open-loop client.
	Poisson = "poisson"
	// Gamma is gamma-distributed gaps with a configurable coefficient
	// of variation: CV > 1 models bursty (chat-like) traffic, CV < 1
	// regular traffic.
	Gamma = "gamma"
	// Weibull is Weibull-distributed gaps with a configurable shape:
	// shape < 1 gives heavy-tailed bursts, shape > 1 machine-like
	// regularity.
	Weibull = "weibull"
	// Trace replays recorded arrival times verbatim.
	Trace = "trace"
)

// DefaultRequestKB is the request payload applied when a spec leaves
// RequestKB zero: 64 MiB, a shuffle-block-sized transfer that makes
// queueing visible against multi-gigabit paths.
const DefaultRequestKB = 65536

// DefaultClass is the SLO class assigned to clients that do not name
// one.
const DefaultClass = "standard"

// Spec describes the traffic offered to every cell of a campaign: an
// aggregate request rate split across named clients. The zero value
// means "no workload traffic".
type Spec struct {
	// AggregateRPS is the total offered request rate, requests/second,
	// split across clients by RateFraction.
	AggregateRPS float64 `json:"aggregate_rps"`
	// RequestKB is the per-request payload in KiB (every request
	// transfers this much over the measured path); 0 means
	// DefaultRequestKB.
	RequestKB float64 `json:"request_kb,omitempty"`
	// Clients are the traffic sources, in declaration order.
	Clients []Client `json:"clients"`
}

// Client is one named traffic source.
type Client struct {
	// ID names the client; it keys the client's random substream, so
	// it must be unique within a spec.
	ID string `json:"id"`
	// RateFraction is this client's share of AggregateRPS, in (0, 1];
	// fractions sum to 1 across the spec. Trace clients carry a
	// fraction too (their nominal share, for reporting) but their
	// arrival times come from the recorded trace verbatim.
	RateFraction float64 `json:"rate_fraction"`
	// SLOClass groups clients for reporting (e.g. "interactive",
	// "batch"); empty means DefaultClass.
	SLOClass string `json:"slo_class,omitempty"`
	// Arrival is the inter-arrival process.
	Arrival Arrival `json:"arrival"`
}

// Arrival selects an inter-arrival process. Exactly the fields of the
// chosen process may be set.
type Arrival struct {
	// Process is one of Poisson, Gamma, Weibull or Trace.
	Process string `json:"process"`
	// CV is the coefficient of variation of gamma gaps (required for
	// Gamma, must be > 0).
	CV float64 `json:"cv,omitempty"`
	// Shape is the Weibull shape parameter (required for Weibull,
	// must be > 0).
	Shape float64 `json:"shape,omitempty"`
	// Times are recorded arrival times in seconds from campaign start,
	// non-decreasing (required for Trace).
	Times []float64 `json:"times,omitempty"`
}

var idPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// ValidClientID reports whether id is acceptable as a client name —
// client IDs key random substreams and appear in labels, so they use
// the same grammar as store run IDs.
func ValidClientID(id string) bool { return idPattern.MatchString(id) }

// Validate checks the spec. The expspec layer performs the same checks
// with document field paths; this is the engine-level gate for specs
// assembled programmatically.
func (s Spec) Validate() error {
	if s.AggregateRPS <= 0 {
		return fmt.Errorf("workload: aggregate rate %g must be positive", s.AggregateRPS)
	}
	if s.RequestKB < 0 {
		return fmt.Errorf("workload: request size %g KB must be >= 0", s.RequestKB)
	}
	if len(s.Clients) == 0 {
		return fmt.Errorf("workload: spec has no clients")
	}
	seen := make(map[string]bool)
	sum := 0.0
	for i, c := range s.Clients {
		if !ValidClientID(c.ID) {
			return fmt.Errorf("workload: client %d id %q must match %s", i, c.ID, idPattern)
		}
		if seen[c.ID] {
			return fmt.Errorf("workload: duplicate client id %q", c.ID)
		}
		seen[c.ID] = true
		if c.RateFraction <= 0 || c.RateFraction > 1 {
			return fmt.Errorf("workload: client %q rate fraction %g outside (0, 1]", c.ID, c.RateFraction)
		}
		sum += c.RateFraction
		if err := c.Arrival.Validate(); err != nil {
			return fmt.Errorf("workload: client %q: %w", c.ID, err)
		}
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("workload: client rate fractions sum to %g, want 1", sum)
	}
	return nil
}

// Validate checks that exactly the chosen process's parameters are
// set.
func (a Arrival) Validate() error {
	switch a.Process {
	case Poisson:
		if a.CV != 0 || a.Shape != 0 || a.Times != nil {
			return fmt.Errorf("poisson arrivals take no parameters")
		}
	case Gamma:
		if a.CV <= 0 {
			return fmt.Errorf("gamma arrivals require cv > 0, got %g", a.CV)
		}
		if a.Shape != 0 || a.Times != nil {
			return fmt.Errorf("gamma arrivals take only cv")
		}
	case Weibull:
		if a.Shape <= 0 {
			return fmt.Errorf("weibull arrivals require shape > 0, got %g", a.Shape)
		}
		if a.CV != 0 || a.Times != nil {
			return fmt.Errorf("weibull arrivals take only shape")
		}
	case Trace:
		if a.CV != 0 || a.Shape != 0 {
			return fmt.Errorf("trace arrivals take only recorded times")
		}
		if len(a.Times) == 0 {
			return fmt.Errorf("trace arrivals require recorded times")
		}
		for i, t := range a.Times {
			if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
				return fmt.Errorf("trace time %d (%g s) must be finite and >= 0", i, t)
			}
			if i > 0 && t < a.Times[i-1] {
				return fmt.Errorf("trace time %d (%g s) precedes time %d (%g s)", i, t, i-1, a.Times[i-1])
			}
		}
	case "":
		return fmt.Errorf("arrival process required (one of %s)", strings.Join(Processes(), ", "))
	default:
		return fmt.Errorf("unknown arrival process %q (one of %s)", a.Process, strings.Join(Processes(), ", "))
	}
	return nil
}

// Processes lists the known arrival process names.
func Processes() []string { return []string{Poisson, Gamma, Weibull, Trace} }

// EffectiveRequestKB returns the request payload after defaulting.
func (s Spec) EffectiveRequestKB() float64 {
	if s.RequestKB <= 0 {
		return DefaultRequestKB
	}
	return s.RequestKB
}

// RequestGbit is the per-request transfer volume in gigabits — the
// unit the serving engine integrates against Gbps bandwidth envelopes.
func (s Spec) RequestGbit() float64 {
	// KiB × 1024 × 8 bits, over 1e9 bits/gigabit.
	return s.EffectiveRequestKB() * 1024 * 8 / 1e9
}

// Classes returns the spec's distinct SLO classes, sorted.
func (s Spec) Classes() []string {
	seen := make(map[string]bool)
	var out []string
	for _, c := range s.Clients {
		cl := c.Class()
		if !seen[cl] {
			seen[cl] = true
			out = append(out, cl)
		}
	}
	sort.Strings(out)
	return out
}

// Class returns the client's SLO class after defaulting.
func (c Client) Class() string {
	if c.SLOClass == "" {
		return DefaultClass
	}
	return c.SLOClass
}

// Summary renders the spec on one line for CLI banners and run
// listings: "chat:poisson+batch:gamma @ 12 rps", or "none" for the
// zero spec.
func (s Spec) Summary() string {
	if len(s.Clients) == 0 {
		return "none"
	}
	parts := make([]string, len(s.Clients))
	for i, c := range s.Clients {
		parts[i] = c.ID + ":" + c.Arrival.Process
	}
	return fmt.Sprintf("%s @ %g rps", strings.Join(parts, "+"), s.AggregateRPS)
}
