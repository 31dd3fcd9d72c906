// Package expspec is the declarative, versioned experiment-spec
// layer: one self-validating document that defines an experiment —
// matrix, duration, seed, scenario, workloads, persistence, drift
// baseline and output artifacts — and is the canonical public API for
// expressing every experiment in the repo.
//
// The paper's reproducibility complaint is that the *definition* of a
// cloud experiment usually lives in lab-notebook folklore: a shell
// history of flag incantations that nobody can re-execute verbatim a
// year later. KheOps and "Reproducible and Portable Big Data
// Analytics in the Cloud" both argue the fix is a declarative,
// versioned experiment description that machines re-execute exactly.
// expspec is that artifact: a Document decodes from a committed JSON
// (or YAML-subset) file or is assembled programmatically with the
// Builder, Canonical applies defaults and validates every field with
// errors naming the offending path, and Compile lowers the document
// to a validated fleet.CampaignSpec next to copies of its store,
// sharding, faults, drift and artifacts sections.
//
// Identity: Hash is the SHA-256 of the canonical encoding, so two
// documents that mean the same experiment — whatever formatting,
// field order or omitted defaults they were written with — hash
// identically. The hash and the canonical document ride into the
// store manifest next to SpecKey/MatrixKey, so a stored run can
// always reprint the exact spec that produced it (drift -show-spec).
//
// Determinism contract: Compile is pure — equal documents produce
// equal fleet.CampaignSpecs, and fleet guarantees those produce
// bit-identical results at any worker count. The Workers field is
// scheduling, not identity: it does not participate in the hash.
package expspec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"cloudvar/internal/faults"
	"cloudvar/internal/figures"
	"cloudvar/internal/fleet"
	"cloudvar/internal/scenario"
	"cloudvar/internal/store"
	"cloudvar/internal/trace"
	"cloudvar/internal/workloads"
)

// SchemaVersion is the experiment-spec document version this
// toolchain speaks. A document must state its version explicitly: a
// durable artifact that silently defaults its own schema cannot be
// re-executed verbatim once the default moves.
//
// Version 2 restructured traffic: the flat workloads: string list
// (Spark app names) moved to apps:, and workloads: became the
// structured multi-client traffic section (internal/workload).
// Version-1 documents still decode — their string list is read as the
// deprecated alias for apps: — and canonicalize to version 2.
const SchemaVersion = 2

// Defaults applied by Canonical. They mirror the paper's Section 5
// recommendations and the legacy CLI defaults, so a spec written
// without them keys identically to one that spells them out.
const (
	DefaultConfidence = 0.95
	DefaultErrorBound = 0.05
	// DefaultTolerance is the drift fingerprint gate's relative
	// tolerance.
	DefaultTolerance = 0.15
	// DefaultArtifactSeed is the paper's arXiv id, cmd/reproduce's
	// historical default.
	DefaultArtifactSeed = 191209256
	// DefaultArtifactScale is cmd/reproduce's default experiment
	// scale.
	DefaultArtifactScale = 0.25
)

// Document is one versioned experiment definition. Every section but
// the schema version is optional; a document must define at least one
// of campaign, apps, drift or artifacts. The zero value is not
// valid — build documents with NewExperiment or decode them from a
// file.
type Document struct {
	// SchemaVersion is the document format version; required, and
	// must equal SchemaVersion.
	SchemaVersion int `json:"schemaVersion"`
	// Name is a free-form human label for the experiment.
	Name string `json:"name,omitempty"`
	// Campaign defines a cloudbench measurement-campaign matrix.
	Campaign *Campaign `json:"campaign,omitempty"`
	// Apps selects big-data application profiles by name (HiBench
	// names or TPC-DS "qNN") for spark-level experiments. Before
	// schema 2 this list was spelled workloads:, which version-1
	// documents may still use.
	Apps []string `json:"apps,omitempty"`
	// Workloads defines the multi-client traffic mix replayed over
	// every campaign cell (schema >= 2).
	Workloads *WorkloadSection `json:"workloads,omitempty"`
	// Store persists campaign cells to an on-disk results store.
	Store *Store `json:"store,omitempty"`
	// Sharding distributes the campaign across worker processes
	// (internal/shard, cmd/campaignd).
	Sharding *Sharding `json:"sharding,omitempty"`
	// Faults injects a deterministic fault schedule into the
	// campaign's distributed execution (internal/faults).
	Faults *Faults `json:"faults,omitempty"`
	// Drift configures the longitudinal comparison over stored runs.
	Drift *Drift `json:"drift,omitempty"`
	// Output names campaign output artifacts (raw CSV series).
	Output *Output `json:"output,omitempty"`
	// Artifacts selects paper tables/figures for regeneration.
	Artifacts *Artifacts `json:"artifacts,omitempty"`
}

// Campaign is the measurement-campaign section: the clouds × regimes
// × repetitions matrix of Section 3 plus the seed and an optional
// adverse-condition scenario.
type Campaign struct {
	// Profiles are the cloud/instance combinations to measure.
	Profiles []ProfileRef `json:"profiles"`
	// Regimes are access-regime names ("full-speed", "10-30",
	// "5-30"); empty or ["all"] canonicalizes to all three.
	Regimes []string `json:"regimes,omitempty"`
	// Repetitions is the fresh-pair repetition count per (profile,
	// regime) cell; 0 canonicalizes to 1.
	Repetitions int `json:"repetitions,omitempty"`
	// Hours is the emulated campaign duration.
	Hours float64 `json:"hours"`
	// Seed drives all randomness; equal seeds mean bit-identical
	// results.
	Seed uint64 `json:"seed"`
	// Workers bounds the worker pool; 0 means GOMAXPROCS. Pure
	// scheduling — not part of the document's identity hash.
	Workers int `json:"workers,omitempty"`
	// Confidence and ErrorBound parameterise the per-group median CI;
	// 0 canonicalizes to the paper defaults 0.95 and 0.05.
	Confidence float64 `json:"confidence,omitempty"`
	ErrorBound float64 `json:"errorBound,omitempty"`
	// Summarize selects the cell-summary computation: "exact" (the
	// default, canonicalized to omitted) or "sketch", the
	// bounded-memory t-digest with the committed error contract
	// (internal/sketch). Part of the document's identity, like the
	// matrix: sketch summaries are a different experiment.
	Summarize string `json:"summarize,omitempty"`
	// Stopping enables CONFIRM-driven sequential stopping: repetitions
	// per (profile, regime) group are decided by achieved CI precision
	// instead of being fixed. With stopping, repetitions: is the
	// per-group budget (0 canonicalizes to maxReps). Part of the
	// document's identity: an adaptive campaign is a different
	// experiment from a fixed one.
	Stopping *Stopping `json:"stopping,omitempty"`
	// Scenario expands the campaign with a named adverse-condition
	// scenario.
	Scenario *ScenarioRef `json:"scenario,omitempty"`
}

// Stopping is the campaign.stopping section: the sequential-stopping
// policy (fleet.StoppingSpec) in document form. Canonical form spells
// out every default — quantile 0.5, confidence 0.95, minReps the
// smallest n at which the quantile CI is achievable — so a sparse
// policy hashes identically to an explicit one.
type Stopping struct {
	// Quantile of the per-repetition statistic whose CI is tracked; 0
	// canonicalizes to the median (0.5).
	Quantile float64 `json:"quantile,omitempty"`
	// Confidence of the tracked CI; 0 canonicalizes to 0.95.
	Confidence float64 `json:"confidence,omitempty"`
	// ErrorBound is the target relative error — the convergence
	// criterion. Required, in (0, 1).
	ErrorBound float64 `json:"errorBound"`
	// MinReps is the smallest repetition count scheduled per group
	// before a stopping decision; 0 canonicalizes to the achievability
	// minimum.
	MinReps int `json:"minReps,omitempty"`
	// MaxReps caps any one group's repetitions regardless of
	// convergence. Required, >= the effective minReps.
	MaxReps int `json:"maxReps"`
}

// ProfileRef selects one cloud profile: a cloud name plus the
// cloud's instance grammar (EC2 c5.* name, or a core count for
// gce/hpccloud). An empty instance canonicalizes to the cloud's
// default selector.
type ProfileRef struct {
	Cloud    string `json:"cloud"`
	Instance string `json:"instance,omitempty"`
}

// ScenarioRef selects a registered adverse-condition scenario by name
// with optional parameter overrides. Canonical form spells out the
// full parameter set, so the stored document records the exact
// conditions even if the registry defaults later change.
type ScenarioRef struct {
	Name   string             `json:"name"`
	Params map[string]float64 `json:"params,omitempty"`
}

// Store names the on-disk results store a campaign persists into.
type Store struct {
	// Dir is the store directory.
	Dir string `json:"dir"`
	// RunID names the stored run (e.g. a date).
	RunID string `json:"runId"`
	// Resume reopens an interrupted run and executes only its missing
	// cells. Operational, like Workers: not part of the identity hash.
	Resume bool `json:"resume,omitempty"`
	// Encoding selects the cell-record encoding: "jsonl" (the default,
	// canonicalized to omitted) or "columnar" (internal/store's
	// delta-encoded cells.col). Operational, like the whole store
	// section: the same experiment stored either way keeps its hash.
	Encoding string `json:"encoding,omitempty"`
}

// Sharding distributes the campaign's cell matrix across worker
// processes (internal/shard). Operational, like store: and workers:
// — the merge contract makes a sharded run byte-identical to a
// single-process one, so sharding does not participate in the
// identity hash.
type Sharding struct {
	// Shards is the partition width; 0 canonicalizes to
	// max(len(workers), 1).
	Shards int `json:"shards,omitempty"`
	// Workers are worker-process base URLs ("http://host:port");
	// empty means the shards execute in-process. When both shards and
	// workers are given they must agree: each worker owns one shard.
	Workers []string `json:"workers,omitempty"`
}

// Faults declares a deterministic fault schedule for the campaign's
// distributed execution: a registered fault plan (internal/faults)
// with parameter overrides and a schedule seed. Operational, like
// store: and sharding: — the resilience contract makes a faulted run
// byte-identical to a fault-free one, so the section never moves the
// document's identity hash. Canonical form spells out the plan's full
// resolved parameter set, the scenario rule: the stored document
// replays the exact schedule even if registry defaults later change.
type Faults struct {
	// Plan names a registered fault plan (see faults.Names, e.g.
	// "crash-restart").
	Plan string `json:"plan"`
	// Seed derives the schedule's substreams; 0 canonicalizes to the
	// campaign seed.
	Seed uint64 `json:"seed,omitempty"`
	// Params override the plan's parameter defaults.
	Params map[string]float64 `json:"params,omitempty"`
}

// Drift configures the longitudinal comparison (cmd/drift) over the
// document's store.
type Drift struct {
	// Runs lists the run IDs to compare, baseline first; empty means
	// every run in the store.
	Runs []string `json:"runs,omitempty"`
	// Tolerance is the fingerprint gate's relative tolerance; 0
	// canonicalizes to 0.15.
	Tolerance float64 `json:"tolerance,omitempty"`
	// Confidence and ErrorBound parameterise per-group median CIs; 0
	// canonicalizes to 0.95 and 0.05.
	Confidence float64 `json:"confidence,omitempty"`
	ErrorBound float64 `json:"errorBound,omitempty"`
	// FailOnDrift makes the drift CLI exit non-zero when a drift
	// signal fires, so scheduled campaigns can gate on it.
	FailOnDrift bool `json:"failOnDrift,omitempty"`
}

// Output names campaign output artifacts.
type Output struct {
	// CSV writes the raw series of a single-cell campaign to this
	// path in the released-data format.
	CSV string `json:"csv,omitempty"`
}

// Artifacts selects paper tables/figures for regeneration
// (cmd/reproduce).
type Artifacts struct {
	// IDs are artifact IDs, or ["all"]; empty canonicalizes to
	// ["all"].
	IDs []string `json:"ids,omitempty"`
	// Seed is the artifact seed; 0 canonicalizes to the paper's arXiv
	// id.
	Seed uint64 `json:"seed,omitempty"`
	// Scale is the experiment scale in (0, 1]; 0 canonicalizes to
	// 0.25.
	Scale float64 `json:"scale,omitempty"`
	// Workers bounds concurrent artifact generation; scheduling only.
	Workers int `json:"workers,omitempty"`
	// OutDir, when set, also writes each artifact to OutDir/<id>.txt.
	OutDir string `json:"outdir,omitempty"`
}

// Canonical returns the document with every default applied and every
// field validated: regimes spelled out, scenario parameters resolved
// to their full set, confidence/error-bound/tolerance defaults made
// explicit. Errors name the offending field path (for example
// "campaign.profiles[1].cloud"). Canonical is idempotent — the fixed
// point the round-trip property test pins — and canonical documents
// are what Encode, Hash and the store manifest carry.
func (d Document) Canonical() (Document, error) {
	switch {
	case d.SchemaVersion == 0:
		return Document{}, fmt.Errorf("schemaVersion: required (this toolchain speaks %d)", SchemaVersion)
	case d.SchemaVersion < 1 || d.SchemaVersion > SchemaVersion:
		return Document{}, fmt.Errorf("schemaVersion: %d unsupported (this toolchain speaks 1-%d)", d.SchemaVersion, SchemaVersion)
	}
	out := d
	// Canonical form is always the current version: a version-1
	// document (whose workloads: string list the decoder already read
	// as apps:) upgrades in place.
	out.SchemaVersion = SchemaVersion
	if d.Campaign != nil {
		c, err := d.Campaign.canonical()
		if err != nil {
			return Document{}, err
		}
		out.Campaign = &c
	}
	if len(d.Apps) > 0 {
		names := append([]string(nil), d.Apps...)
		seen := make(map[string]bool)
		for i, name := range names {
			if _, err := workloads.ByName(name); err != nil {
				return Document{}, fmt.Errorf("apps[%d]: %w", i, err)
			}
			if seen[name] {
				return Document{}, fmt.Errorf("apps[%d]: duplicate app %q", i, name)
			}
			seen[name] = true
		}
		out.Apps = names
	}
	if d.Workloads != nil {
		if d.Campaign == nil {
			return Document{}, fmt.Errorf("workloads: requires a campaign section (traffic replays over campaign cells)")
		}
		w, err := d.Workloads.canonical()
		if err != nil {
			return Document{}, err
		}
		out.Workloads = &w
	}
	if d.Store != nil {
		s := *d.Store
		if s.Dir == "" {
			return Document{}, fmt.Errorf("store.dir: required")
		}
		// A campaign persists under a run ID; a drift-only document
		// needs just the directory.
		if s.RunID == "" && d.Campaign != nil {
			return Document{}, fmt.Errorf("store.runId: required (name the run, e.g. a date)")
		}
		if s.RunID != "" && !store.ValidRunID(s.RunID) {
			return Document{}, fmt.Errorf("store.runId: %q is not a valid run id", s.RunID)
		}
		enc, err := store.NormalizeEncoding(s.Encoding)
		if err != nil {
			return Document{}, fmt.Errorf("store.encoding: %q is not a cell encoding (want jsonl or columnar)", s.Encoding)
		}
		s.Encoding = enc
		out.Store = &s
	}
	if d.Sharding != nil {
		sh, err := d.Sharding.canonical(d.Campaign != nil)
		if err != nil {
			return Document{}, err
		}
		out.Sharding = &sh
	}
	if d.Faults != nil {
		f, err := d.Faults.canonical(out.Campaign)
		if err != nil {
			return Document{}, err
		}
		out.Faults = &f
	}
	if d.Drift != nil {
		dr := *d.Drift
		if d.Store == nil {
			return Document{}, fmt.Errorf("drift: requires a store section (the runs to compare live in a store)")
		}
		if len(dr.Runs) == 1 {
			return Document{}, fmt.Errorf("drift.runs: need >= 2 runs to compare (baseline first), or omit to compare every run in the store")
		}
		for i, id := range dr.Runs {
			if !store.ValidRunID(id) {
				return Document{}, fmt.Errorf("drift.runs[%d]: %q is not a valid run id", i, id)
			}
		}
		dr.Runs = append([]string(nil), dr.Runs...)
		if dr.Tolerance == 0 {
			dr.Tolerance = DefaultTolerance
		}
		if dr.Tolerance < 0 {
			return Document{}, fmt.Errorf("drift.tolerance: %g must be positive", dr.Tolerance)
		}
		var err error
		if dr.Confidence, dr.ErrorBound, err = canonicalCI("drift", dr.Confidence, dr.ErrorBound); err != nil {
			return Document{}, err
		}
		out.Drift = &dr
	}
	if d.Output != nil {
		o := *d.Output
		if o == (Output{}) {
			return Document{}, fmt.Errorf("output: section is empty (name a csv path or drop it)")
		}
		if o.CSV != "" {
			if d.Campaign == nil {
				return Document{}, fmt.Errorf("output.csv: requires a campaign section")
			}
			if n := out.Campaign.cellCount(); n != 1 {
				return Document{}, fmt.Errorf("output.csv: needs a single campaign cell (one profile, one regime, one repetition); matrix has %d", n)
			}
		}
		out.Output = &o
	}
	if d.Artifacts != nil {
		a, err := d.Artifacts.canonical()
		if err != nil {
			return Document{}, err
		}
		out.Artifacts = &a
	}
	if out.Campaign == nil && len(out.Apps) == 0 && out.Drift == nil && out.Artifacts == nil {
		return Document{}, fmt.Errorf("spec defines nothing to run: add a campaign, apps, drift or artifacts section")
	}
	return out, nil
}

// canonical validates and defaults the campaign section.
func (c Campaign) canonical() (Campaign, error) {
	out := c
	if len(c.Profiles) == 0 {
		return Campaign{}, fmt.Errorf("campaign.profiles: required (give at least one cloud)")
	}
	out.Profiles = make([]ProfileRef, len(c.Profiles))
	seen := make(map[string]bool)
	for i, p := range c.Profiles {
		rp, err := p.withDefaults()
		if err != nil {
			return Campaign{}, fmt.Errorf("campaign.profiles[%d].%w", i, err)
		}
		resolved, err := rp.Resolve()
		if err != nil {
			return Campaign{}, fmt.Errorf("campaign.profiles[%d]: %w", i, err)
		}
		key := resolved.Cloud + "/" + resolved.Instance
		if seen[key] {
			return Campaign{}, fmt.Errorf("campaign.profiles[%d]: duplicate matrix entry %s", i, key)
		}
		seen[key] = true
		out.Profiles[i] = rp
	}
	regimes, err := canonicalRegimes(c.Regimes)
	if err != nil {
		return Campaign{}, err
	}
	out.Regimes = regimes
	if c.Stopping != nil {
		s, err := c.Stopping.canonical()
		if err != nil {
			return Campaign{}, err
		}
		out.Stopping = &s
	}
	if c.Repetitions < 0 {
		return Campaign{}, fmt.Errorf("campaign.repetitions: %d must be >= 0", c.Repetitions)
	}
	if out.Stopping != nil {
		// With stopping, repetitions is the per-group budget; canonical
		// form resolves the default (maxReps) and clamps into
		// [minReps, maxReps] exactly as fleet.EffectiveBudget does, so
		// sparse and explicit budgets hash identically.
		b := c.Repetitions
		if b == 0 || b > out.Stopping.MaxReps {
			b = out.Stopping.MaxReps
		}
		if b < out.Stopping.MinReps {
			b = out.Stopping.MinReps
		}
		out.Repetitions = b
	} else if c.Repetitions == 0 {
		out.Repetitions = 1
	}
	if c.Hours <= 0 {
		return Campaign{}, fmt.Errorf("campaign.hours: %g must be positive", c.Hours)
	}
	if c.Workers < 0 {
		out.Workers = 0
	}
	if out.Confidence, out.ErrorBound, err = canonicalCI("campaign", c.Confidence, c.ErrorBound); err != nil {
		return Campaign{}, err
	}
	if err := fleet.SummarizeMode(c.Summarize).Validate(); err != nil {
		return Campaign{}, fmt.Errorf("campaign.summarize: %q is not a summarize mode (want exact or sketch)", c.Summarize)
	}
	if c.Summarize == "exact" {
		// The default's explicit spelling canonicalizes away, so a
		// document that spells it out hashes identically to one that
		// omits it — mirroring store.SpecIdentity.
		out.Summarize = ""
	}
	if c.Scenario != nil {
		if c.Scenario.Name == "" {
			return Campaign{}, fmt.Errorf("campaign.scenario.name: required (see cloudbench -scenario-list)")
		}
		sc, err := scenario.Build(c.Scenario.Name, c.Scenario.Params)
		if err != nil {
			return Campaign{}, fmt.Errorf("campaign.scenario: %w", err)
		}
		// Record the full resolved parameter set: the canonical
		// document must replay the exact conditions even if the
		// registry defaults later change.
		ref := ScenarioRef{Name: sc.Name}
		if len(sc.Params) > 0 {
			ref.Params = make(map[string]float64, len(sc.Params))
			for k, v := range sc.Params {
				ref.Params[k] = v
			}
		}
		out.Scenario = &ref
	}
	return out, nil
}

// CheckWorkerURLs refuses an empty or repeated worker URL, naming the
// entry as field[i]: sharding.workers and campaignd's -workers share it.
func CheckWorkerURLs(field string, urls []string) error {
	seen := make(map[string]bool, len(urls))
	for i, u := range urls {
		if u == "" {
			return fmt.Errorf("%s[%d]: empty worker URL", field, i)
		}
		if seen[u] {
			return fmt.Errorf("%s[%d]: duplicate worker %q", field, i, u)
		}
		seen[u] = true
	}
	return nil
}

// canonical validates and defaults the sharding section.
func (s Sharding) canonical(hasCampaign bool) (Sharding, error) {
	if !hasCampaign {
		return Sharding{}, fmt.Errorf("sharding: requires a campaign section (sharding partitions the campaign's cell matrix)")
	}
	out := s
	if s.Shards < 0 {
		return Sharding{}, fmt.Errorf("sharding.shards: %d must be >= 0", s.Shards)
	}
	if err := CheckWorkerURLs("sharding.workers", s.Workers); err != nil {
		return Sharding{}, err
	}
	if len(s.Workers) > 0 {
		out.Workers = append([]string(nil), s.Workers...)
	}
	if s.Shards == 0 {
		out.Shards = len(s.Workers)
		if out.Shards == 0 {
			out.Shards = 1
		}
	} else if len(s.Workers) > 0 && s.Shards != len(s.Workers) {
		return Sharding{}, fmt.Errorf("sharding.shards: %d disagrees with %d workers (each worker owns one shard; set one of them or make them equal)", s.Shards, len(s.Workers))
	}
	return out, nil
}

// canonical validates and defaults the faults section against the
// fault-plan registry, recording the full resolved parameter set so
// the canonical document replays the exact schedule even if registry
// defaults later change. The seed defaults to the campaign seed.
func (f Faults) canonical(c *Campaign) (Faults, error) {
	if c == nil {
		return Faults{}, fmt.Errorf("faults: requires a campaign section (fault plans schedule against the campaign's workers)")
	}
	if f.Plan == "" {
		return Faults{}, fmt.Errorf("faults.plan: required (known: %v)", faults.Names())
	}
	built, err := faults.Build(f.Plan, f.Params)
	if err != nil {
		return Faults{}, err
	}
	out := Faults{Plan: f.Plan, Seed: f.Seed, Params: built.Params}
	if out.Seed == 0 {
		out.Seed = c.Seed
	}
	return out, nil
}

// canonical validates and defaults the stopping section, spelling out
// every effective value.
func (s Stopping) canonical() (Stopping, error) {
	if s == (Stopping{}) {
		return Stopping{}, fmt.Errorf("campaign.stopping: section is empty (set errorBound and maxReps, or drop it)")
	}
	out := s
	if s.Quantile == 0 {
		out.Quantile = 0.5
	}
	if out.Quantile <= 0 || out.Quantile >= 1 {
		return Stopping{}, fmt.Errorf("campaign.stopping.quantile: %g outside (0, 1)", out.Quantile)
	}
	if s.Confidence == 0 {
		out.Confidence = DefaultConfidence
	}
	if out.Confidence <= 0 || out.Confidence >= 1 {
		return Stopping{}, fmt.Errorf("campaign.stopping.confidence: %g outside (0, 1)", out.Confidence)
	}
	if s.ErrorBound <= 0 || s.ErrorBound >= 1 {
		return Stopping{}, fmt.Errorf("campaign.stopping.errorBound: %g outside (0, 1) (required — the convergence criterion)", s.ErrorBound)
	}
	if s.MinReps < 0 {
		return Stopping{}, fmt.Errorf("campaign.stopping.minReps: %d must be >= 0", s.MinReps)
	}
	// The achievability default comes from the same fleet logic that
	// will schedule the campaign, so document and scheduler can never
	// disagree on the effective minimum.
	out.MinReps = out.toFleet().EffectiveMinReps()
	if s.MaxReps < out.MinReps {
		return Stopping{}, fmt.Errorf("campaign.stopping.maxReps: %d below the effective minimum %d", s.MaxReps, out.MinReps)
	}
	return out, nil
}

// toFleet lowers the section to the scheduler's policy type.
func (s Stopping) toFleet() fleet.StoppingSpec {
	return fleet.StoppingSpec{
		Quantile:   s.Quantile,
		Confidence: s.Confidence,
		ErrorBound: s.ErrorBound,
		MinReps:    s.MinReps,
		MaxReps:    s.MaxReps,
	}
}

// cellCount is the campaign matrix size after canonicalization.
func (c Campaign) cellCount() int {
	return len(c.Profiles) * len(c.Regimes) * c.Repetitions
}

// canonicalRegimes expands and validates the regime-name list: empty
// or ["all"] means the paper's three standard regimes.
func canonicalRegimes(names []string) ([]string, error) {
	if len(names) == 0 || (len(names) == 1 && names[0] == "all") {
		all := trace.Regimes()
		out := make([]string, len(all))
		for i, r := range all {
			out[i] = r.Name
		}
		return out, nil
	}
	out := make([]string, len(names))
	seen := make(map[string]bool)
	for i, name := range names {
		if _, err := trace.RegimeByName(name); err != nil {
			return nil, fmt.Errorf("campaign.regimes[%d]: %w", i, err)
		}
		if seen[name] {
			return nil, fmt.Errorf("campaign.regimes[%d]: duplicate regime %q", i, name)
		}
		seen[name] = true
		out[i] = name
	}
	return out, nil
}

// canonicalCI defaults and validates a confidence/error-bound pair.
func canonicalCI(section string, confidence, errorBound float64) (float64, float64, error) {
	if confidence == 0 {
		confidence = DefaultConfidence
	}
	if errorBound == 0 {
		errorBound = DefaultErrorBound
	}
	if confidence <= 0 || confidence >= 1 {
		return 0, 0, fmt.Errorf("%s.confidence: %g outside (0, 1)", section, confidence)
	}
	if errorBound <= 0 || errorBound >= 1 {
		return 0, 0, fmt.Errorf("%s.errorBound: %g outside (0, 1)", section, errorBound)
	}
	return confidence, errorBound, nil
}

// canonical validates and defaults the artifacts section.
func (a Artifacts) canonical() (Artifacts, error) {
	out := a
	if len(a.IDs) == 0 {
		out.IDs = []string{"all"}
	} else {
		out.IDs = append([]string(nil), a.IDs...)
		known := make(map[string]bool)
		for _, id := range figures.IDs() {
			known[id] = true
		}
		seen := make(map[string]bool)
		for i, id := range out.IDs {
			if id == "all" && len(out.IDs) > 1 {
				return Artifacts{}, fmt.Errorf("artifacts.ids[%d]: \"all\" cannot be combined with other ids", i)
			}
			if id != "all" && !known[id] {
				return Artifacts{}, fmt.Errorf("artifacts.ids[%d]: unknown artifact %q (see reproduce -list)", i, id)
			}
			if seen[id] {
				return Artifacts{}, fmt.Errorf("artifacts.ids[%d]: duplicate artifact %q", i, id)
			}
			seen[id] = true
		}
	}
	if a.Seed == 0 {
		out.Seed = DefaultArtifactSeed
	}
	if a.Scale == 0 {
		out.Scale = DefaultArtifactScale
	}
	if out.Scale <= 0 || out.Scale > 1 {
		return Artifacts{}, fmt.Errorf("artifacts.scale: %g outside (0, 1]", out.Scale)
	}
	if a.Workers < 0 {
		out.Workers = 0
	}
	return out, nil
}

// Encode renders the document in the canonical encoding: indented
// JSON with fixed field order, map keys sorted, and a trailing
// newline. Committed spec files must be byte-identical to the
// canonical encoding of what they decode to (cmd/speccheck enforces
// this), so diffs over spec files are always semantic.
func (d Document) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("encoding spec: %w", err)
	}
	return append(b, '\n'), nil
}

// Hash returns the document's content address: the SHA-256 of its
// canonical encoding under a domain tag, hex-encoded, with
// non-identity fields masked. Identity is what the experiment
// *computes* — the campaign matrix, scenario, workloads and analysis
// parameters — regardless of formatting, field order or omitted
// defaults. The human label (name), the storage location (store
// section), output paths (csv, outdir) and scheduling (workers,
// resume, sharding) are operational: the same experiment re-run on
// more cores, resumed, sharded across processes, or persisted
// somewhere else keeps its hash — the merge contract guarantees the
// bytes do too.
func (d Document) Hash() (string, error) {
	canon, err := d.Canonical()
	if err != nil {
		return "", err
	}
	return hashCanonical(canon)
}

// hashCanonical hashes an already-canonical document, masking the
// non-identity fields. Compile calls it directly so the document is
// not canonicalized (and every name re-resolved) a second time.
func hashCanonical(canon Document) (string, error) {
	canon.Name = ""
	canon.Store = nil
	canon.Sharding = nil
	canon.Faults = nil
	canon.Output = nil
	if canon.Campaign != nil {
		c := *canon.Campaign
		c.Workers = 0
		canon.Campaign = &c
	}
	if canon.Artifacts != nil {
		a := *canon.Artifacts
		a.Workers = 0
		a.OutDir = ""
		canon.Artifacts = &a
	}
	b, err := canon.Encode()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(append([]byte(domainTag), b...))
	return hex.EncodeToString(sum[:]), nil
}

// domainTag separates the spec-hash namespace; it tracks the canonical
// schema version, which the canonical bytes also embed.
const domainTag = "cloudvar/expspec/v2\n"
