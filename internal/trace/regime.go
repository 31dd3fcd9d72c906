package trace

import (
	"fmt"
	"math"
)

// Regime is a network access pattern from Section 3.1's campaign
// design. The paper tested three: continuous transfer ("full-speed",
// modelling long-running batch or streaming jobs) and two intermittent
// patterns ("10-30" and "5-30", modelling short-lived analytics
// queries such as TPC-H or TPC-DS).
type Regime struct {
	// Name is the paper's label: "full-speed", "10-30" or "5-30".
	Name string
	// SendSec is the transmit phase length; 0 means continuous.
	SendSec float64
	// RestSec is the idle phase length after each transmit phase.
	RestSec float64
}

// Standard regimes from the paper.
var (
	FullSpeed = Regime{Name: "full-speed"}
	Send10R30 = Regime{Name: "10-30", SendSec: 10, RestSec: 30}
	Send5R30  = Regime{Name: "5-30", SendSec: 5, RestSec: 30}
)

// Regimes returns the three campaign regimes in presentation order.
func Regimes() []Regime { return []Regime{FullSpeed, Send10R30, Send5R30} }

// Continuous reports whether the regime never rests.
func (r Regime) Continuous() bool { return r.SendSec == 0 && r.RestSec == 0 }

// Validate checks the regime is well-formed.
func (r Regime) Validate() error {
	switch {
	case !(r.SendSec >= 0) || math.IsInf(r.SendSec, 1):
		return fmt.Errorf("trace: regime %q send phase %g s must be non-negative and finite", r.Name, r.SendSec)
	case !(r.RestSec >= 0) || math.IsInf(r.RestSec, 1):
		return fmt.Errorf("trace: regime %q rest phase %g s must be non-negative and finite", r.Name, r.RestSec)
	}
	if (r.SendSec == 0) != (r.RestSec == 0) {
		return fmt.Errorf("trace: regime %q must set both or neither phase", r.Name)
	}
	return nil
}

// RegimeByName looks up a standard regime by its paper label.
func RegimeByName(name string) (Regime, error) {
	for _, r := range Regimes() {
		if r.Name == name {
			return r, nil
		}
	}
	return Regime{}, fmt.Errorf("trace: unknown regime %q (want full-speed, 10-30 or 5-30)", name)
}
