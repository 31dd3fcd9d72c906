package expspec

// Builder is the programmatic face of the spec API: a fluent chain
// that assembles the same Document a spec file declares, so library
// callers and committed files express experiments through one
// identical artifact:
//
//	doc, err := expspec.NewExperiment("quickstart").
//		WithProfile("ec2", "c5.xlarge").
//		WithRegimes("full-speed").
//		WithDuration(0.05).
//		WithSeed(7).
//		WithScenario("noisy-neighbor", nil).
//		Build()
//
// Build canonicalizes and validates; errors carry the field path of
// the first offending option. The zero Builder is not useful — start
// with NewExperiment.
type Builder struct {
	doc Document
	err error
}

// NewExperiment starts a spec document with the current schema
// version and an optional name.
func NewExperiment(name string) *Builder {
	return &Builder{doc: Document{SchemaVersion: SchemaVersion, Name: name}}
}

// campaign returns the campaign section, creating it on first use.
func (b *Builder) campaign() *Campaign {
	if b.doc.Campaign == nil {
		b.doc.Campaign = &Campaign{}
	}
	return b.doc.Campaign
}

// WithProfile adds one cloud/instance combination to the campaign
// matrix. An empty instance selects the cloud's default.
func (b *Builder) WithProfile(cloud, instance string) *Builder {
	c := b.campaign()
	c.Profiles = append(c.Profiles, ProfileRef{Cloud: cloud, Instance: instance})
	return b
}

// WithProfileList adds profiles from the -cloud/-instance comma-list
// grammar — the bridge the legacy CLI flags ride in on.
func (b *Builder) WithProfileList(clouds, instances string) *Builder {
	refs, err := ParseProfiles(clouds, instances)
	if err != nil {
		if b.err == nil {
			b.err = err
		}
		return b
	}
	c := b.campaign()
	c.Profiles = append(c.Profiles, refs...)
	return b
}

// WithRegimes selects access regimes by name; unset (or "all") means
// all three standard regimes.
func (b *Builder) WithRegimes(names ...string) *Builder {
	b.campaign().Regimes = append([]string(nil), names...)
	return b
}

// WithRepetitions sets the fresh-pair repetition count per cell.
func (b *Builder) WithRepetitions(n int) *Builder {
	b.campaign().Repetitions = n
	return b
}

// WithDuration sets the emulated campaign duration in hours.
func (b *Builder) WithDuration(hours float64) *Builder {
	b.campaign().Hours = hours
	return b
}

// WithSeed sets the campaign seed.
func (b *Builder) WithSeed(seed uint64) *Builder {
	b.campaign().Seed = seed
	return b
}

// WithWorkers bounds the campaign worker pool (scheduling only; never
// part of the document's identity).
func (b *Builder) WithWorkers(n int) *Builder {
	b.campaign().Workers = n
	return b
}

// WithStopping enables CONFIRM-driven sequential stopping: the
// campaign stops repeating a (profile, regime) group once its CI's
// relative error fits errBound, up to maxReps repetitions per group.
// Zero-valued fields of s take the documented defaults (median,
// 95% confidence, the achievability minimum). With stopping, the
// builder's WithRepetitions sets the per-group budget (0 means
// maxReps).
func (b *Builder) WithStopping(s Stopping) *Builder {
	b.campaign().Stopping = &s
	return b
}

// WithScenario expands the campaign with a named adverse-condition
// scenario; params override the registry defaults (nil keeps them).
func (b *Builder) WithScenario(name string, params map[string]float64) *Builder {
	ref := ScenarioRef{Name: name}
	if len(params) > 0 {
		ref.Params = make(map[string]float64, len(params))
		for k, v := range params {
			ref.Params[k] = v
		}
	}
	b.campaign().Scenario = &ref
	return b
}

// workloads returns the workloads section, creating it on first use.
func (b *Builder) workloads() *WorkloadSection {
	if b.doc.Workloads == nil {
		b.doc.Workloads = &WorkloadSection{}
	}
	return b.doc.Workloads
}

// WithWorkloadRate sets the traffic section's aggregate request rate
// (requests/second) and per-request payload in KiB (0 keeps the
// default, workload.DefaultRequestKB).
func (b *Builder) WithWorkloadRate(aggregateRPS, requestKB float64) *Builder {
	w := b.workloads()
	w.AggregateRPS, w.RequestKB = aggregateRPS, requestKB
	return b
}

// WithClient adds one traffic client: a named source taking
// rateFraction of the aggregate rate, reported under sloClass (""
// means the default class), generating arrivals from the given
// process — see PoissonArrival and GammaArrival.
func (b *Builder) WithClient(id, sloClass string, rateFraction float64, arrival WorkloadArrival) *Builder {
	w := b.workloads()
	w.Clients = append(w.Clients, WorkloadClient{
		ID: id, RateFraction: rateFraction, SLOClass: sloClass, Arrival: arrival,
	})
	return b
}

// WithStore persists campaign cells to the named results store under
// the given run ID.
func (b *Builder) WithStore(dir, runID string) *Builder {
	resume := b.doc.Store != nil && b.doc.Store.Resume
	b.doc.Store = &Store{Dir: dir, RunID: runID, Resume: resume}
	return b
}

// WithFaults injects a deterministic fault schedule into the
// distributed campaign: plan names a registry fault plan, seed derives
// the victim/jitter substreams (0 means the campaign seed), params
// overrides plan parameters (nil keeps the registry defaults).
// Operational only — faults never change result bytes, so the section
// keeps the document's hash.
func (b *Builder) WithFaults(plan string, seed uint64, params map[string]float64) *Builder {
	b.doc.Faults = &Faults{Plan: plan, Seed: seed, Params: params}
	return b
}

// WithCSV writes the raw series of a single-cell campaign to path.
func (b *Builder) WithCSV(path string) *Builder {
	if b.doc.Output == nil {
		b.doc.Output = &Output{}
	}
	b.doc.Output.CSV = path
	return b
}

// WithDrift configures the longitudinal comparison over the
// document's store: run IDs baseline-first (none means every run).
func (b *Builder) WithDrift(runs ...string) *Builder {
	if b.doc.Drift == nil {
		b.doc.Drift = &Drift{}
	}
	b.doc.Drift.Runs = append(b.doc.Drift.Runs, runs...)
	return b
}

// WithDriftOptions sets the drift gate parameters (zero keeps each
// default) and whether drift should fail the run.
func (b *Builder) WithDriftOptions(tolerance, confidence, errorBound float64, failOnDrift bool) *Builder {
	if b.doc.Drift == nil {
		b.doc.Drift = &Drift{}
	}
	d := b.doc.Drift
	d.Tolerance, d.Confidence, d.ErrorBound, d.FailOnDrift = tolerance, confidence, errorBound, failOnDrift
	return b
}

// WithArtifacts selects paper tables/figures for regeneration; ids
// empty means all.
func (b *Builder) WithArtifacts(ids ...string) *Builder {
	if b.doc.Artifacts == nil {
		b.doc.Artifacts = &Artifacts{}
	}
	b.doc.Artifacts.IDs = append(b.doc.Artifacts.IDs, ids...)
	return b
}

// WithArtifactOptions sets artifact seed/scale/workers/outdir (zero
// values keep the defaults).
func (b *Builder) WithArtifactOptions(seed uint64, scale float64, workers int, outdir string) *Builder {
	if b.doc.Artifacts == nil {
		b.doc.Artifacts = &Artifacts{}
	}
	a := b.doc.Artifacts
	a.Seed, a.Scale, a.Workers, a.OutDir = seed, scale, workers, outdir
	return b
}

// Build canonicalizes and validates the assembled document. The
// result is in canonical form: Encode gives the bytes a committed
// spec file should contain, Hash its content address.
func (b *Builder) Build() (Document, error) {
	if b.err != nil {
		return Document{}, b.err
	}
	return b.doc.Canonical()
}
