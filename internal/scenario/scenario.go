// Package scenario is a composable engine of named, seedable
// adverse-condition scenarios for cloud-network experiments.
//
// The paper's core claim is that cloud variability — noisy neighbors,
// diurnal congestion, token-bucket regime changes — silently changes
// big-data performance conclusions; Henning et al. (2025) add that the
// *timing and shape* of such conditions dominates benchmark validity.
// A campaign that only ever runs against a static profile×regime cell
// therefore answers a narrower question than it appears to. scenario
// makes adverse conditions first-class, named and replayable (the
// KheOps requirement): a Scenario is a value composed from small
// Condition primitives (overlay, window, ramp, correlate, per-VM,
// regime flip) that compiles down to time-varying netem shaper
// schedules wrapped around every VM path of a fleet.CampaignSpec, or
// around every node of a spark cluster.
//
// Determinism contract: a Condition resolves campaign-level
// (correlated) randomness from the spec seed at compile time and
// per-VM randomness from the cell's own substream at wrap time, so an
// expanded spec inherits fleet's guarantee — output is bit-identical
// at any worker count and across resume. The scenario's identity
// (name + params) is carried on the spec into the store manifest, so
// the drift analyser refuses to compare runs of different scenarios
// the same way it refuses different matrices.
//
// Defining a new scenario is a few lines:
//
//	sc := scenario.Scenario{
//		Name:        "lunch-rush",
//		Description: "a deep midday depression",
//		Params:      map[string]float64{"depth": 0.7},
//		Conditions: []scenario.Condition{
//			scenario.Window{StartSec: 3600, EndSec: 7200, Depth: 0.7},
//		},
//	}
//	spec, err := sc.Expand(spec)
package scenario

import (
	"fmt"
	"sort"
	"sync"

	"cloudvar/internal/cloudmodel"
	"cloudvar/internal/fleet"
	"cloudvar/internal/netem"
	"cloudvar/internal/simrand"
	"cloudvar/internal/spark"
)

// Env is the campaign-level context a condition compiles against:
// the seed resolves correlated (cross-VM) randomness, the duration
// anchors relative schedules.
type Env struct {
	// Seed is the campaign seed (fleet.CampaignSpec.Seed).
	Seed uint64
	// DurationSec is the campaign length a relative schedule spans.
	DurationSec float64
}

// Wrap applies a compiled condition to one VM's network path. local
// is that path's independent random substream (derived from the cell
// substream); correlated conditions ignore it, per-VM conditions draw
// from it.
type Wrap func(inner netem.Shaper, local *simrand.Source) netem.Shaper

// Condition is one small, composable adverse-condition primitive.
// Implementations are pure values: all state lives in the shapers
// they build.
type Condition interface {
	// ID returns the condition's stable identity string. It names the
	// substreams the condition draws from, so it must be unique within
	// a scenario and must encode the parameters.
	ID() string
	// Compile resolves campaign-level randomness and returns the
	// per-path wrapper.
	Compile(env Env) (Wrap, error)
}

// Scenario is a named, parameterised bundle of conditions.
type Scenario struct {
	// Name is the registry key (e.g. "noisy-neighbor").
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Params are the scenario's named numeric parameters. They are
	// recorded in the store manifest (via fleet.ScenarioID) and
	// participate in the spec hash: two runs of the same scenario
	// name with different params are not comparable.
	Params map[string]float64
	// Conditions are applied to every VM path, first condition
	// innermost.
	Conditions []Condition
}

// Validate checks the scenario is well-formed.
func (sc Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: scenario needs a name")
	}
	if len(sc.Conditions) == 0 {
		return fmt.Errorf("scenario: %s has no conditions", sc.Name)
	}
	seen := make(map[string]bool)
	for _, c := range sc.Conditions {
		id := c.ID()
		if seen[id] {
			// Two conditions with one ID would share a substream —
			// the correlated-replay hazard the fleet guards against
			// for cells.
			return fmt.Errorf("scenario: %s has duplicate condition %s", sc.Name, id)
		}
		seen[id] = true
	}
	return nil
}

// ID returns the scenario's declarative identity as the orchestrator
// and store carry it: name, params, and the condition IDs. The
// condition IDs encode every compiled parameter, so the identity (and
// hence the spec keys) changes whenever the scenario's behaviour
// does, even if Params was not kept in sync by hand.
func (sc Scenario) ID() fleet.ScenarioID {
	id := fleet.ScenarioID{Name: sc.Name}
	if len(sc.Params) > 0 {
		id.Params = make(map[string]float64, len(sc.Params))
		for k, v := range sc.Params {
			id.Params[k] = v
		}
	}
	for _, c := range sc.Conditions {
		id.Conditions = append(id.Conditions, c.ID())
	}
	return id
}

// clone returns a deep-enough copy: registry reads hand these out so
// callers mutating Params or the Conditions slice cannot rewrite the
// registered entry behind Register's validation.
func (sc Scenario) clone() Scenario {
	out := sc
	if sc.Params != nil {
		out.Params = make(map[string]float64, len(sc.Params))
		for k, v := range sc.Params {
			out.Params[k] = v
		}
	}
	out.Conditions = append([]Condition(nil), sc.Conditions...)
	return out
}

// compile compiles every condition against env, in order.
func (sc Scenario) compile(env Env) ([]Wrap, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	wraps := make([]Wrap, len(sc.Conditions))
	for i, c := range sc.Conditions {
		w, err := c.Compile(env)
		if err != nil {
			return nil, fmt.Errorf("scenario: %s condition %s: %w", sc.Name, c.ID(), err)
		}
		wraps[i] = w
	}
	return wraps, nil
}

// wrapPath applies the compiled conditions to one path. src is the
// path's base substream (a fleet cell's, or a spark node's); each
// condition gets its own named child so conditions never share draws.
func (sc Scenario) wrapPath(wraps []Wrap, inner netem.Shaper, src *simrand.Source) netem.Shaper {
	sh := inner
	for i, w := range wraps {
		sh = w(sh, src.Substream("scenario/"+sc.Name+"/"+sc.Conditions[i].ID()))
	}
	return sh
}

// Expand returns a copy of spec whose profile shaper factories are
// wrapped with the scenario's compiled conditions, and whose Scenario
// identity is set so the store records it. The input spec must not
// already carry a scenario: stacking scenarios implicitly would make
// the recorded identity a lie — compose Conditions into one Scenario
// instead.
func (sc Scenario) Expand(spec fleet.CampaignSpec) (fleet.CampaignSpec, error) {
	if !spec.Scenario.IsZero() {
		return spec, fmt.Errorf("scenario: spec already expanded with %s", spec.Scenario)
	}
	if err := spec.Config.Validate(); err != nil {
		return spec, err
	}
	wraps, err := sc.compile(Env{Seed: spec.Seed, DurationSec: spec.Config.DurationSec})
	if err != nil {
		return spec, err
	}
	out := spec
	out.Profiles = make([]cloudmodel.Profile, len(spec.Profiles))
	for i, p := range spec.Profiles {
		if p.NewShaper == nil {
			return spec, fmt.Errorf("scenario: profile %s/%s has nil shaper factory", p.Cloud, p.Instance)
		}
		inner := p.NewShaper
		p.NewShaper = func(src *simrand.Source) netem.Shaper {
			return sc.wrapPath(wraps, inner(src), src)
		}
		out.Profiles[i] = p
	}
	out.Scenario = sc.ID()
	return out, nil
}

// ApplyCluster returns a copy of cfg whose per-node shaper factory is
// wrapped with the scenario's compiled conditions — per-VM slowdown
// injection into the spark simulator. Each node's conditions draw
// from a substream named by the node index, so node identities (which
// node is the straggler) are stable across runs of the same seed and
// independent of everything else the simulation draws.
func (sc Scenario) ApplyCluster(cfg spark.ClusterConfig, seed uint64, durationSec float64) (spark.ClusterConfig, error) {
	if cfg.NewShaper == nil {
		return cfg, fmt.Errorf("scenario: cluster config has nil shaper factory")
	}
	wraps, err := sc.compile(Env{Seed: seed, DurationSec: durationSec})
	if err != nil {
		return cfg, err
	}
	inner := cfg.NewShaper
	out := cfg
	out.NewShaper = func(node int) netem.Shaper {
		src := simrand.New(seed).Substream(fmt.Sprintf("scenario/%s/node%02d", sc.Name, node))
		return sc.wrapPath(wraps, inner(node), src)
	}
	return out, nil
}

// ---- Registry ----

var (
	regMu    sync.RWMutex
	registry = make(map[string]Scenario)
)

// Register adds a scenario to the registry. Registering a duplicate
// or invalid scenario is an error.
func Register(sc Scenario) error {
	if err := sc.Validate(); err != nil {
		return err
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[sc.Name]; dup {
		return fmt.Errorf("scenario: duplicate scenario %q", sc.Name)
	}
	registry[sc.Name] = sc.clone()
	return nil
}

// MustRegister is Register, panicking on error — for package init.
func MustRegister(sc Scenario) {
	if err := Register(sc); err != nil {
		panic(err)
	}
}

// ByName returns a registered scenario.
func ByName(name string) (Scenario, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	sc, ok := registry[name]
	if !ok {
		return Scenario{}, fmt.Errorf("scenario: unknown scenario %q (known: %v)", name, names())
	}
	return sc.clone(), nil
}

func names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// All returns every registered scenario in name order — the
// registry-wide hook the determinism property tests iterate, so a
// newly registered scenario is covered automatically.
func All() []Scenario {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Scenario, 0, len(registry))
	for _, name := range names() {
		out = append(out, registry[name].clone())
	}
	return out
}
