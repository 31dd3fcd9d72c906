package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"cloudvar/internal/cloudmodel"
	"cloudvar/internal/fleet"
	"cloudvar/internal/trace"
	"cloudvar/internal/workload"
)

// SchemaVersion is the on-disk format version. It participates in the
// spec key, so results written by an incompatible schema can never be
// silently compared against current ones.
//
// Version 2 added the scenario identity to SpecIdentity (runs of
// different adverse-condition scenarios are never comparable).
// Version 3 added the workload identity (internal/workload) and
// per-cell served-traffic metrics.
// Version 4 added the summarization-mode identity (internal/sketch)
// and the columnar cell encoding (a run whose manifest stamps
// encoding "columnar" is stamped schema 4 even if its spec identity
// is older, so pre-columnar binaries refuse it instead of finding an
// empty cells.jsonl).
// Version 5 added the sequential-stopping identity
// (fleet.StoppingSpec) and the manifest's achieved-precision records.
// Version 6 added the shard stamp (Manifest.Shard): a run holding one
// shard of a distributed campaign is stamped schema 6 even if its spec
// identity is older, so pre-shard binaries refuse the partial run
// instead of mistaking it for a complete campaign. Merged runs carry
// no stamp and keep their identity's schema — byte-identical to a
// single-process run's manifest.
//
// Versioning rule: a run is stamped with the *oldest* schema able to
// express it (identitySchema), and readers accept every version in
// [MinSchemaVersion, SchemaVersion]. A spec that uses no workload
// section therefore keys and serialises exactly as version 2 did —
// stored runs stay resumable and comparable across the upgrade.
const SchemaVersion = 6

// MinSchemaVersion is the oldest on-disk format this binary reads.
const MinSchemaVersion = 2

// ProfileID is the code-relevant identity of a cloud profile. The
// shaper factory itself is a function and cannot be hashed; Cloud and
// Instance name the catalog entry it came from and LineRateGbps
// guards against a catalog entry being redefined.
type ProfileID struct {
	Cloud        string  `json:"cloud"`
	Instance     string  `json:"instance"`
	LineRateGbps float64 `json:"line_rate_gbps"`
}

// SpecIdentity is the canonical, hashable form of a campaign spec:
// every field that changes what Run computes, and none of the fields
// that only change how it is scheduled or observed (Workers,
// Progress, Sink). Defaults are applied before hashing so a spec
// written with explicit defaults keys identically to one that relied
// on the zero values.
type SpecIdentity struct {
	Schema      int                       `json:"schema"`
	Profiles    []ProfileID               `json:"profiles"`
	Regimes     []trace.Regime            `json:"regimes"`
	Repetitions int                       `json:"repetitions"`
	Config      cloudmodel.CampaignConfig `json:"config"`
	Seed        uint64                    `json:"seed"`
	Confidence  float64                   `json:"confidence"`
	ErrorBound  float64                   `json:"error_bound"`
	// Scenario is the adverse-condition scenario the spec was expanded
	// with (internal/scenario); zero for plain campaigns. It is part
	// of both keys: a noisy-neighbor run is a different experiment
	// from a quiet one, on every axis — resume and drift alike.
	// encoding/json serialises the params map with sorted keys, so the
	// hash is canonical.
	Scenario fleet.ScenarioID `json:"scenario"`
	// Workload is the traffic mix replayed over every cell
	// (internal/workload); nil for campaigns without one. Part of both
	// keys: runs differing only in traffic mix are different
	// experiments. omitempty keeps workload-less identities
	// byte-identical to schema 2, so their keys are unchanged.
	Workload *workload.Spec `json:"workload,omitempty"`
	// Summarize records a non-default summarization mode ("sketch");
	// empty (and omitted) for exact. Part of both keys: sketch-mode
	// summaries carry the contract's rank error and must never be
	// drift-compared against exact ones as if interchangeable.
	Summarize string `json:"summarize,omitempty"`
	// Stopping records an active sequential-stopping policy; nil for
	// fixed-repetition campaigns, which therefore key exactly as before
	// schema 5. Part of both keys: an adaptive campaign's cell set is
	// data-dependent, so it is a different experiment from a fixed run
	// — resume must re-derive the same schedule and drift must not
	// compare across policies.
	Stopping *StoppingIdentity `json:"stopping,omitempty"`
}

// StoppingIdentity is the canonical form of fleet.StoppingSpec:
// every default spelled out, so a spec relying on zero-value defaults
// keys identically to one writing them explicitly.
type StoppingIdentity struct {
	Quantile   float64 `json:"quantile"`
	Confidence float64 `json:"confidence"`
	ErrorBound float64 `json:"error_bound"`
	MinReps    int     `json:"min_reps"`
	MaxReps    int     `json:"max_reps"`
}

// identitySchema returns the schema an identity is stamped with: the
// oldest version able to express it (see the SchemaVersion comment).
func identitySchema(spec fleet.CampaignSpec) int {
	if !spec.Stopping.IsZero() {
		return 5
	}
	if summarizeIdentity(spec.Summarize) != "" {
		return 4
	}
	if spec.Workload != nil {
		return 3
	}
	return 2
}

// summarizeIdentity canonicalises the summarization mode for hashing:
// the default (exact) is spelled "", whichever way the spec wrote it.
func summarizeIdentity(m fleet.SummarizeMode) string {
	if m == "exact" {
		return ""
	}
	return string(m)
}

// Identity extracts the canonical identity of a spec.
func Identity(spec fleet.CampaignSpec) SpecIdentity {
	id := SpecIdentity{
		Schema:      identitySchema(spec),
		Workload:    spec.Workload,
		Summarize:   summarizeIdentity(spec.Summarize),
		Regimes:     spec.EffectiveRegimes(),
		Repetitions: spec.EffectiveRepetitions(),
		Config:      spec.Config,
		Seed:        spec.Seed,
		Confidence:  spec.Confidence,
		ErrorBound:  spec.ErrorBound,
		Scenario:    spec.Scenario,
	}
	if id.Confidence == 0 {
		id.Confidence = 0.95
	}
	if id.ErrorBound == 0 {
		id.ErrorBound = 0.05
	}
	if st := spec.Stopping; !st.IsZero() {
		// With stopping active, Repetitions is a per-group *budget*
		// (fleet.EffectiveBudget applies defaulting and clamping), so
		// specs that resolve to the same budget key identically.
		id.Repetitions = spec.EffectiveBudget()
		id.Stopping = &StoppingIdentity{
			Quantile:   st.EffectiveQuantile(),
			Confidence: st.EffectiveConfidence(),
			ErrorBound: st.ErrorBound,
			MinReps:    st.EffectiveMinReps(),
			MaxReps:    st.MaxReps,
		}
	}
	for _, p := range spec.Profiles {
		id.Profiles = append(id.Profiles, ProfileID{
			Cloud: p.Cloud, Instance: p.Instance, LineRateGbps: p.LineRateGbps,
		})
	}
	return id
}

// SpecKey returns the content address of a campaign spec: the SHA-256
// of its canonical JSON identity (domain-tagged), hex-encoded. It
// includes the seed, so it identifies one exact reproducible run —
// the gate for resume, where mixing cells from different seeds would
// silently splice unrelated random streams.
func SpecKey(spec fleet.CampaignSpec) (string, error) {
	return Identity(spec).Key()
}

// Key hashes an already-extracted identity, seed included.
func (id SpecIdentity) Key() (string, error) {
	return id.hash("spec")
}

// MatrixKey hashes the identity with the seed normalised out: the
// seed-independent content address of a campaign. It identifies "the
// same campaign run on a different day" — the gate for longitudinal
// drift comparison, where equal seeds would make the emulated runs
// trivially identical and unequal matrices would make them
// incomparable.
func (id SpecIdentity) MatrixKey() (string, error) {
	id.Seed = 0
	return id.hash("matrix")
}

// hash serialises the identity under a domain tag so the two key
// namespaces can never collide.
func (id SpecIdentity) hash(domain string) (string, error) {
	// encoding/json is canonical here: struct fields serialise in
	// declaration order and float64s round-trip via the shortest
	// representation, so equal identities give equal bytes.
	b, err := json.Marshal(id)
	if err != nil {
		return "", fmt.Errorf("store: hashing spec: %w", err)
	}
	sum := sha256.Sum256(append([]byte(domain+"\n"), b...))
	return hex.EncodeToString(sum[:]), nil
}
