package expspec

// Compile lowers a document to the runtime objects the rest of the
// stack executes: the validated fleet.CampaignSpec and resolved
// workloads, next to copies of the document's other sections. Compile
// is pure and deterministic — equal documents produce equal plans, and
// the plan carries the canonical bytes + hash so whoever persists the
// run can record the exact spec that produced it.

import (
	"fmt"

	"cloudvar/internal/cloudmodel"
	"cloudvar/internal/fleet"
	"cloudvar/internal/scenario"
	"cloudvar/internal/trace"
	"cloudvar/internal/workloads"
)

// Plan is a compiled document: everything an entry point needs to
// execute the experiment. Store, Sharding, Faults, Drift and Artifacts
// are copies of Doc's sections (nil when the document omits one), so an
// operational override on the plan, such as cloudbench -resume, leaves
// Doc as compiled. Their slices and maps are shared with Doc and are
// read-only.
type Plan struct {
	// Doc is the canonical document the plan was compiled from.
	Doc Document
	// Bytes is Doc's canonical encoding — what the store manifest
	// records and drift -show-spec reprints.
	Bytes []byte
	// Hash is the document's content address.
	Hash string
	// Campaign is the executable campaign, nil when the document has
	// no campaign section.
	Campaign *CampaignPlan
	// Apps are the resolved application profiles, in document order.
	Apps []workloads.App
	// CSV is the raw-series output path ("" when none).
	CSV string

	Store     *Store
	Sharding  *Sharding
	Faults    *Faults
	Drift     *Drift
	Artifacts *Artifacts
}

// CampaignPlan is the executable form of the campaign section.
type CampaignPlan struct {
	// Spec is the validated, scenario-expanded campaign — ready for
	// fleet.Run.
	Spec fleet.CampaignSpec
	// ScenarioDescription is the expanded scenario's one-line
	// description ("" without a scenario), for CLI banners.
	ScenarioDescription string
}

// Compile canonicalizes, validates and lowers the document. Errors
// name the offending field path.
func Compile(doc Document) (Plan, error) {
	canon, err := doc.Canonical()
	if err != nil {
		return Plan{}, err
	}
	bytes, err := canon.Encode()
	if err != nil {
		return Plan{}, err
	}
	hash, err := hashCanonical(canon)
	if err != nil {
		return Plan{}, err
	}
	plan := Plan{
		Doc: canon, Bytes: bytes, Hash: hash,
		Store: clone(canon.Store), Sharding: clone(canon.Sharding), Faults: clone(canon.Faults),
		Drift: clone(canon.Drift), Artifacts: clone(canon.Artifacts),
	}
	if canon.Campaign != nil {
		cp, err := compileCampaign(*canon.Campaign, canon.Workloads)
		if err != nil {
			return Plan{}, err
		}
		plan.Campaign = cp
	}
	for i, name := range canon.Apps {
		app, err := workloads.ByName(name)
		if err != nil {
			return Plan{}, fmt.Errorf("apps[%d]: %w", i, err)
		}
		plan.Apps = append(plan.Apps, app)
	}
	if canon.Output != nil {
		plan.CSV = canon.Output.CSV
	}
	return plan, nil
}

// clone returns a copy of *p, or nil when p is nil.
func clone[T any](p *T) *T {
	if p == nil {
		return nil
	}
	c := *p
	return &c
}

// compileCampaign lowers a canonical campaign section to a validated
// fleet.CampaignSpec, attaching the document's workload traffic (nil
// when the document has no workloads section) and applying the
// scenario expansion.
func compileCampaign(c Campaign, w *WorkloadSection) (*CampaignPlan, error) {
	profiles, err := ResolveProfiles(c.Profiles)
	if err != nil {
		return nil, err
	}
	regimes := make([]trace.Regime, len(c.Regimes))
	for i, name := range c.Regimes {
		r, err := trace.RegimeByName(name)
		if err != nil {
			return nil, fmt.Errorf("campaign.regimes[%d]: %w", i, err)
		}
		regimes[i] = r
	}
	spec := fleet.CampaignSpec{
		Profiles:    profiles,
		Regimes:     regimes,
		Repetitions: c.Repetitions,
		Config:      cloudmodel.DefaultCampaignConfig(c.Hours * 3600),
		Seed:        c.Seed,
		Workers:     c.Workers,
		Confidence:  c.Confidence,
		ErrorBound:  c.ErrorBound,
		Summarize:   fleet.SummarizeMode(c.Summarize),
	}
	if c.Stopping != nil {
		spec.Stopping = c.Stopping.toFleet()
	}
	if w != nil {
		spec.Workload = w.compile()
	}
	plan := &CampaignPlan{}
	if c.Scenario != nil {
		sc, err := scenario.Build(c.Scenario.Name, c.Scenario.Params)
		if err != nil {
			return nil, fmt.Errorf("campaign.scenario: %w", err)
		}
		if spec, err = sc.Expand(spec); err != nil {
			return nil, fmt.Errorf("campaign.scenario: %w", err)
		}
		plan.ScenarioDescription = sc.Description
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	plan.Spec = spec
	return plan, nil
}
