// Package cloudvar is a library for variability-aware performance
// experimentation in cloud networks, reproducing "Is Big Data
// Performance Reproducible in Modern Cloud Networks?" (Uta et al.,
// NSDI 2020).
//
// The package re-exports the public surface of the internal packages
// that the examples and documentation use:
//
//   - designed experiments and platform fingerprints (internal/core):
//     RunExperiment, DefaultDesign, Fingerprint
//   - descriptive statistics and inter-rater agreement
//     (internal/stats): Median, Quantile, Summarize, CohenKappa
//   - CONFIRM repetition planning (internal/confirm): Confirm
//   - the token-bucket shaper model (internal/tokenbucket):
//     NewTokenBucket
//   - cloud path profiles over the network emulator
//     (internal/cloudmodel, internal/netem): EC2Profile, Shaper
//   - the Spark-like execution simulator and workload suites
//     (internal/spark, internal/workloads): Table4Cluster, HiBench,
//     TPCDS, WorkloadByName
//   - the declarative experiment-spec API (internal/expspec):
//     NewExperiment, DecodeExperiment, CompileExperiment, and the
//     arrival processes of its workloads: section
//   - deterministic concurrent campaign matrices (internal/fleet):
//     RunFleet
//   - the persistent campaign store (internal/store): OpenStore,
//     CampaignSpecKey; cross-run drift analysis of stored runs is
//     reached through cmd/drift
//   - distributed campaign sharding with a byte-identical merge
//     (internal/shard, cmd/campaignd): RunShardedCampaign, MergeShards
//   - deterministic fault injection (internal/faults): BuildFaultPlan,
//     InjectShardFaults
//   - the coordinator's resilience layer (internal/shard), which
//     retries, backs off and trips its circuit breakers under one
//     fixed policy: ClassifyShardError
//   - composable adverse-condition scenarios (internal/scenario):
//     AdverseScenario, BuildScenario
//   - figure/table regeneration (internal/figures): GenerateArtifact
//
// Quick start:
//
//	profile, _ := cloudvar.EC2Profile("c5.xlarge")
//	src := cloudvar.NewRand(7)
//	fp, _ := cloudvar.Fingerprint(func() cloudvar.Shaper {
//		return profile.NewShaper(src)
//	}, profile.VNIC, cloudvar.FingerprintConfig{}, src)
//	fmt.Println(fp)
//
// See the runnable programs under examples/ for complete scenarios.
package cloudvar

import (
	"cloudvar/internal/cloudmodel"
	"cloudvar/internal/confirm"
	"cloudvar/internal/core"
	"cloudvar/internal/expspec"
	"cloudvar/internal/faults"
	"cloudvar/internal/figures"
	"cloudvar/internal/fleet"
	"cloudvar/internal/netem"
	"cloudvar/internal/scenario"
	"cloudvar/internal/shard"
	"cloudvar/internal/simrand"
	"cloudvar/internal/spark"
	"cloudvar/internal/stats"
	"cloudvar/internal/store"
	"cloudvar/internal/tokenbucket"
	"cloudvar/internal/trace"
	"cloudvar/internal/workloads"
)

// Rand is a deterministic random source with named substreams.
type Rand = simrand.Source

// NewRand returns a deterministic random source.
func NewRand(seed uint64) *Rand { return simrand.New(seed) }

// Statistical functions.
var (
	// Median returns the sample median.
	Median = stats.Median
	// Quantile returns an arbitrary sample quantile.
	Quantile = stats.Quantile
	// Summarize computes a descriptive summary.
	Summarize = stats.Summarize
	// CohenKappa measures inter-rater agreement.
	CohenKappa = stats.CohenKappa[string]
)

// Experiment methodology (the paper's Section 5 guidance).
type (
	// Trial produces one measurement.
	Trial = core.Trial
	// FingerprintConfig tunes fingerprint micro-benchmarks.
	FingerprintConfig = core.FingerprintConfig
)

// Methodology functions.
var (
	// RunExperiment executes a designed experiment.
	RunExperiment = core.Run
	// DefaultDesign returns the recommended fixed design.
	DefaultDesign = core.DefaultDesign
	// Fingerprint micro-benchmarks an emulated network path.
	Fingerprint = core.FingerprintShaper
	// Confirm runs CONFIRM over a measurement sequence.
	Confirm = confirm.Analyze
)

// Network emulation.
type (
	// Shaper is an egress rate controller.
	Shaper = netem.Shaper
	// TokenBucketParams parameterises the EC2-style shaper.
	TokenBucketParams = tokenbucket.Params
	// CloudProfile bundles a cloud's shaper and vNIC models.
	CloudProfile = cloudmodel.Profile
)

// Emulation constructors.
var (
	// NewTokenBucket builds a token bucket.
	NewTokenBucket = tokenbucket.New
	// EC2Profile models an Amazon c5-family path.
	EC2Profile = cloudmodel.EC2Profile
)

// SparkRunOptions tunes one job execution on the Spark-like
// execution simulator (sampling hooks).
type SparkRunOptions = spark.RunOptions

// Workload catalogs.
var (
	// HiBench returns the five HiBench application profiles.
	HiBench = workloads.HiBench
	// TPCDS returns the 21 TPC-DS query profiles.
	TPCDS = workloads.TPCDS
	// WorkloadByName resolves any workload by name.
	WorkloadByName = workloads.ByName
	// Table4Cluster builds the paper's 12-node token-bucket rig.
	Table4Cluster = workloads.Table4Cluster
)

// Declarative experiment specs: one versioned document that defines,
// runs, stores and compares campaigns (internal/expspec). This is the
// canonical way to express an experiment — spec files and the fluent
// builder produce the same artifact, and its canonical hash rides
// into every stored run's manifest.
type (
	// ExperimentPlan is a compiled document: the executable campaign
	// next to copies of the document's store, sharding, faults, drift
	// and artifacts sections.
	ExperimentPlan = expspec.Plan
	// ExperimentStopping is the document's campaign.stopping section:
	// CONFIRM-driven sequential stopping instead of fixed repetitions.
	ExperimentStopping = expspec.Stopping
)

// Experiment-spec functions.
var (
	// NewExperiment starts a spec document with the current schema
	// version: NewExperiment("x").WithProfile(...).Build().
	NewExperiment = expspec.NewExperiment
	// DecodeExperiment strictly parses a spec document from JSON or
	// the YAML subset, rejecting unknown fields with their path.
	DecodeExperiment = expspec.Decode
	// DecodeExperimentFile reads and parses a spec file.
	DecodeExperimentFile = expspec.DecodeFile
	// CompileExperiment canonicalizes, validates and lowers a
	// document to its executable plan.
	CompileExperiment = expspec.Compile
	// BuildScenario resolves a registered scenario with parameter
	// overrides merged over its defaults.
	BuildScenario = scenario.Build
)

// Arrival processes for the multi-client traffic engine: a spec
// document's workloads: section (or WithClient on the builder) names
// clients with SLO classes and these inter-arrival processes, and the
// compiled campaign reports per-SLO-class request latency
// (internal/workload).
var (
	// PoissonArrival builds a memoryless arrival process (CV = 1).
	PoissonArrival = expspec.PoissonArrival
	// GammaArrival builds gamma inter-arrivals with a chosen
	// coefficient of variation (cv > 1 bursty, cv < 1 regular).
	GammaArrival = expspec.GammaArrival
)

// CampaignSpec declares a clouds x regimes x repetitions matrix:
// deterministic concurrent campaign orchestration (internal/fleet).
type CampaignSpec = fleet.CampaignSpec

// Fleet and campaign functions.
var (
	// RunFleet executes a campaign matrix across a bounded worker
	// pool; output is bit-identical at any worker count.
	RunFleet = fleet.Run
	// StandardRegimes returns the paper's three access regimes.
	StandardRegimes = trace.Regimes
	// DefaultCampaignConfig returns the paper's campaign settings.
	DefaultCampaignConfig = cloudmodel.DefaultCampaignConfig
)

// StoredCellRecord is one persisted campaign cell of the on-disk,
// content-addressed campaign store (internal/store).
type StoredCellRecord = store.CellRecord

// Store functions.
var (
	// OpenStore opens (creating if needed) a results store directory.
	OpenStore = store.Open
	// CampaignSpecKey hashes a spec's full identity, seed included —
	// the resume gate.
	CampaignSpecKey = store.SpecKey
)

// Distributed campaigns: shard a campaign's cell matrix across worker
// processes and merge the shard stores back into a run byte-identical
// to a single-process RunFleet (internal/shard, cmd/campaignd).
type (
	// ShardCampaign describes a distributed campaign: the spec, its
	// identity, and the worker fleet to shard across.
	ShardCampaign = shard.Campaign
	// ShardWorker executes assigned cells into a shard-stamped store.
	ShardWorker = shard.Worker
	// StoredRunMeta is the creation metadata shared by every shard of
	// a campaign (fingerprints, spec document, encoding).
	StoredRunMeta = store.RunMeta
	// InProcShardWorker runs shards inside the coordinator process.
	InProcShardWorker = shard.InProcWorker
)

// Distributed-campaign functions.
var (
	// ShardOwner assigns a cell label to a shard — a pure function of
	// the campaign's SpecKey, so reassignment after worker death
	// reproduces identical bytes.
	ShardOwner = shard.Owner
	// RunShardedCampaign executes a campaign across the workers and
	// returns the one shard MergeShards needs, built from the cells
	// the workers answered.
	RunShardedCampaign = shard.Run
	// MergeShards recombines shard stores into one byte-identical run,
	// refusing mismatched identities, non-identical duplicates, and —
	// given the coordinator's expected label set — incomplete unions.
	MergeShards = store.MergeShards
)

// Fault injection and resilience: deterministic chaos for distributed
// campaigns. A seeded fault plan perturbs workers and transports —
// crashes, stalls, torn responses, partitions — while the coordinator's
// resilience layer (classified retries, circuit breakers, graceful
// degradation) keeps the merged run byte-identical to a fault-free one
// (internal/faults, internal/shard).
type (
	// FaultPlan is a named, parameterized fault schedule; compile it
	// with FaultInjector for a concrete fleet.
	FaultPlan = faults.Plan
	// FaultInjector holds per-worker fault state compiled from a plan;
	// wire it in with InjectShardFaults or its HTTP Transport.
	FaultInjector = faults.Injector
	// ShardStatusError is a non-2xx answer from a worker, carrying the
	// HTTP status that classifies it.
	ShardStatusError = shard.StatusError
)

// Fault-injection functions and classification results.
var (
	// BuildFaultPlan resolves a fault-plan name and parameter overrides
	// against the registry, defaults spelled out.
	BuildFaultPlan = faults.Build
	// FaultPlanNames lists the registered fault plans.
	FaultPlanNames = faults.Names
	// InjectShardFaults wraps an in-process worker with one injector
	// lane's fault schedule.
	InjectShardFaults = shard.InjectFaults
	// ClassifyShardError sorts a worker error into transient (retry)
	// or fatal (abort the campaign).
	ClassifyShardError = shard.Classify
	// ShardErrTransient marks an error worth retrying.
	ShardErrTransient = shard.ClassTransient
	// ShardErrFatal marks a protocol refusal that aborts the campaign.
	ShardErrFatal = shard.ClassFatal
)

// Adverse-condition scenarios: named, seedable, composable.
type (
	// AdverseScenario is a named bundle of adverse-condition
	// primitives that expands a CampaignSpec into time-varying shaper
	// schedules.
	AdverseScenario = scenario.Scenario
	// ScenarioCondition is one composable adverse-condition primitive.
	ScenarioCondition = scenario.Condition
	// ScenarioWindow is a depression inside one time window.
	ScenarioWindow = scenario.Window
	// ScenarioRamp moves capacity linearly between two factors.
	ScenarioRamp = scenario.Ramp
)

// ArtifactConfig controls the seed and scale of figure regeneration.
type ArtifactConfig = figures.Config

// Artifact functions.
var (
	// GenerateArtifact regenerates one paper table/figure by ID.
	GenerateArtifact = figures.Generate
	// ArtifactIDs lists the regenerable artifacts.
	ArtifactIDs = figures.IDs
)
