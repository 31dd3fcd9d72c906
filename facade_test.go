package cloudvar_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"slices"
	"strings"
	"testing"

	cloudvar "cloudvar"
)

// facadeNames is the committed public surface of cloudvar.go: the names
// the examples, the tests of this package, README.md,
// docs/ARCHITECTURE.md and the package doc's quick start use, plus Rand,
// which NewRand's signature names. Adding or removing an export means
// editing this list in the same change.
var facadeNames = []string{
	"AdverseScenario", "ArtifactConfig", "ArtifactIDs", "BuildFaultPlan",
	"BuildScenario", "CampaignSpec", "CampaignSpecKey", "ClassifyShardError",
	"CloudProfile", "CohenKappa", "CompileExperiment", "Confirm",
	"DecodeExperiment", "DecodeExperimentFile", "DefaultCampaignConfig",
	"DefaultDesign", "EC2Profile", "ExperimentPlan", "ExperimentStopping",
	"FaultInjector", "FaultPlan", "FaultPlanNames", "Fingerprint",
	"FingerprintConfig", "GammaArrival", "GenerateArtifact", "HiBench",
	"InProcShardWorker", "InjectShardFaults", "Median", "MergeShards",
	"NewExperiment", "NewRand", "NewTokenBucket", "OpenStore",
	"PoissonArrival", "Quantile", "Rand", "RunExperiment", "RunFleet",
	"RunShardedCampaign", "ScenarioCondition", "ScenarioRamp",
	"ScenarioWindow", "Shaper", "ShardCampaign", "ShardErrFatal",
	"ShardErrTransient", "ShardOwner", "ShardStatusError",
	"ShardWorker", "SparkRunOptions", "StandardRegimes", "StoredCellRecord",
	"StoredRunMeta", "Summarize", "TPCDS", "Table4Cluster",
	"TokenBucketParams", "Trial", "WorkloadByName",
}

// TestFacadeExportsPinnedNames parses cloudvar.go and fails when its
// exported top-level names differ from facadeNames.
func TestFacadeExportsPinnedNames(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "cloudvar.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				got = append(got, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() {
						got = append(got, sp.Name.Name)
					}
				case *ast.ValueSpec:
					for _, name := range sp.Names {
						if name.IsExported() {
							got = append(got, name.Name)
						}
					}
				}
			}
		}
	}
	for _, name := range got {
		if !slices.Contains(facadeNames, name) {
			t.Errorf("cloudvar.go exports %s, which is not in facadeNames", name)
		}
	}
	for _, name := range facadeNames {
		if !slices.Contains(got, name) {
			t.Errorf("facadeNames lists %s, which cloudvar.go does not export", name)
		}
	}
	if len(got) != len(facadeNames) {
		t.Errorf("cloudvar.go exports %d names, facadeNames pins %d", len(got), len(facadeNames))
	}
}

// TestFacadeEndToEnd drives the public API through the library's
// primary user journey: build a cloud profile, fingerprint it, run a
// designed experiment against it, and validate the statistics.
func TestFacadeEndToEnd(t *testing.T) {
	src := cloudvar.NewRand(7)

	profile, err := cloudvar.EC2Profile("c5.xlarge")
	if err != nil {
		t.Fatal(err)
	}

	fp, err := cloudvar.Fingerprint(func() cloudvar.Shaper {
		return profile.NewShaper(src)
	}, profile.VNIC, cloudvar.FingerprintConfig{}, src)
	if err != nil {
		t.Fatal(err)
	}
	if fp.Bucket == nil {
		t.Fatal("EC2 fingerprint should detect a token bucket")
	}
	if !strings.Contains(fp.String(), "token bucket") {
		t.Errorf("fingerprint string: %q", fp.String())
	}

	// A trial measuring bucket-limited transfer times on fresh VMs.
	transferTrial := cloudvar.Trial(func() (float64, error) {
		b, err := cloudvar.NewTokenBucket(cloudvar.TokenBucketParams{
			BudgetGbit: 100, RefillGbps: 1, HighGbps: 10, LowGbps: 1,
		})
		if err != nil {
			return 0, err
		}
		noise := 1 + src.Normal(0, 0.05)
		return b.TimeToTransfer(10, 150) * noise, nil
	})
	res, err := cloudvar.RunExperiment("transfer-150Gbit", cloudvar.DefaultDesign(20), nil, transferTrial)
	if err != nil {
		t.Fatal(err)
	}
	if res.MedianCIErr != nil {
		t.Fatalf("median CI: %v", res.MedianCIErr)
	}
	// 100 Gbit budget at 9 net drain: 11.1 s high moving 111 Gbit,
	// then ~39 Gbit at 1 Gbps: ~50 s total.
	if res.Summary.Median < 35 || res.Summary.Median > 65 {
		t.Errorf("median transfer time %g, want ~50", res.Summary.Median)
	}
}

func TestFacadeStatistics(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := cloudvar.Median(xs); m != 3 {
		t.Errorf("Median = %g", m)
	}
	if q := cloudvar.Quantile(xs, 1); q != 5 {
		t.Errorf("Quantile(1) = %g", q)
	}
	sum := cloudvar.Summarize(xs)
	if sum.N != 5 || sum.Min != 1 || sum.Max != 5 {
		t.Errorf("Summarize = %+v", sum)
	}
	k, err := cloudvar.CohenKappa([]string{"a", "b"}, []string{"a", "b"})
	if err != nil || k != 1 {
		t.Errorf("CohenKappa = %g, %v", k, err)
	}
}

func TestFacadeWorkloads(t *testing.T) {
	if len(cloudvar.HiBench()) != 5 || len(cloudvar.TPCDS()) != 21 {
		t.Error("workload catalogs wrong size")
	}
	app, err := cloudvar.WorkloadByName("q65")
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := cloudvar.Table4Cluster(5000, cloudvar.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.RunJob(app.Job, cloudvar.SparkRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime() <= 0 || math.IsNaN(res.Runtime()) {
		t.Errorf("runtime %g", res.Runtime())
	}
}

func TestFacadeArtifacts(t *testing.T) {
	ids := cloudvar.ArtifactIDs()
	if len(ids) != 29 {
		t.Errorf("artifact count = %d, want 29", len(ids))
	}
	tbl, err := cloudvar.GenerateArtifact("table1", cloudvar.ArtifactConfig{Seed: 1, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != "table1" {
		t.Errorf("artifact ID %q", tbl.ID)
	}
}

// TestFacadeDistributedCampaign drives the distributed-campaign
// surface: shard a small campaign across two in-process workers,
// merge the shard the coordinator returns, and check the merged run
// carries the single-process identity (SpecKey, no shard stamp, all
// cells).
func TestFacadeDistributedCampaign(t *testing.T) {
	profile, err := cloudvar.EC2Profile("c5.xlarge")
	if err != nil {
		t.Fatal(err)
	}
	spec := cloudvar.CampaignSpec{
		Profiles:    []cloudvar.CloudProfile{profile},
		Regimes:     cloudvar.StandardRegimes()[:2],
		Repetitions: 2,
		Config:      cloudvar.DefaultCampaignConfig(60),
		Seed:        9,
	}
	if owner := cloudvar.ShardOwner("key", "label", 2); owner < 0 || owner > 1 {
		t.Fatalf("ShardOwner = %d, want 0 or 1", owner)
	}

	_, shards, err := cloudvar.RunShardedCampaign(cloudvar.ShardCampaign{
		Spec:  spec,
		RunID: "facade",
		Meta:  cloudvar.StoredRunMeta{CreatedUnix: 1754600000},
		Workers: []cloudvar.ShardWorker{
			&cloudvar.InProcShardWorker{Dir: t.TempDir()},
			&cloudvar.InProcShardWorker{Dir: t.TempDir()},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 1 {
		t.Fatalf("collected %d shards, want 1", len(shards))
	}

	st, err := cloudvar.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	merged, err := cloudvar.MergeShards(st, "facade", shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	merged.Close()
	m, err := st.Manifest("facade")
	if err != nil {
		t.Fatal(err)
	}
	wantKey, err := cloudvar.CampaignSpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	if m.SpecKey != wantKey {
		t.Fatalf("merged SpecKey %.12s, want %.12s", m.SpecKey, wantKey)
	}
	if m.Shard != nil {
		t.Fatal("merged run must not carry a shard stamp")
	}
	cells, err := st.Cells("facade")
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(spec.Cells()) {
		t.Fatalf("merged %d cells, want %d", len(cells), len(spec.Cells()))
	}
}

// TestFacadeFaultInjection drives the chaos surface: build a fault
// plan from the registry, compile an injector over a two-worker
// fleet, run the campaign under injection with the coordinator's
// shipped retry policy, and check the merged run still carries every
// cell.
func TestFacadeFaultInjection(t *testing.T) {
	if names := cloudvar.FaultPlanNames(); len(names) < 6 {
		t.Fatalf("fault-plan registry lists %v", names)
	}
	plan, err := cloudvar.BuildFaultPlan("error-burst", map[string]float64{"count": 1})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Params["victims"] != 1 {
		t.Fatalf("defaults not spelled out: %v", plan.Params)
	}
	inj, err := plan.Injector(3, 2)
	if err != nil {
		t.Fatal(err)
	}

	if cloudvar.ClassifyShardError(&cloudvar.ShardStatusError{Code: 400}) != cloudvar.ShardErrFatal {
		t.Error("a 400 must classify fatal")
	}
	if cloudvar.ClassifyShardError(&cloudvar.ShardStatusError{Code: 503}) != cloudvar.ShardErrTransient {
		t.Error("a 503 must classify transient")
	}

	profile, err := cloudvar.EC2Profile("c5.xlarge")
	if err != nil {
		t.Fatal(err)
	}
	spec := cloudvar.CampaignSpec{
		Profiles:    []cloudvar.CloudProfile{profile},
		Regimes:     cloudvar.StandardRegimes()[:2],
		Repetitions: 2,
		Config:      cloudvar.DefaultCampaignConfig(60),
		Seed:        9,
	}
	workers := make([]cloudvar.ShardWorker, 2)
	for i := range workers {
		workers[i] = cloudvar.InjectShardFaults(
			&cloudvar.InProcShardWorker{Dir: t.TempDir()}, inj.State(i))
	}
	_, shards, err := cloudvar.RunShardedCampaign(cloudvar.ShardCampaign{
		Spec:    spec,
		RunID:   "chaos",
		Meta:    cloudvar.StoredRunMeta{CreatedUnix: 1754600000},
		Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := cloudvar.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	merged, err := cloudvar.MergeShards(st, "chaos", shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	merged.Close()
	cells, err := st.Cells("chaos")
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(spec.Cells()) {
		t.Fatalf("merged %d cells under faults, want %d", len(cells), len(spec.Cells()))
	}
}

// TestFacadeExperimentSpec drives the declarative experiment-spec
// surface: build a document fluently, round-trip it through the
// strict decoder, and compile it to a runnable campaign.
func TestFacadeExperimentSpec(t *testing.T) {
	doc, err := cloudvar.NewExperiment("facade").
		WithProfile("ec2", "c5.xlarge").
		WithRegimes("full-speed").
		WithDuration(0.01).
		WithSeed(5).
		WithScenario("stragglers", map[string]float64{"prob": 0.5}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := cloudvar.DecodeExperiment(enc)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := doc.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := decoded.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("hash changed across encode/decode: %.12s vs %.12s", h1, h2)
	}
	plan, err := cloudvar.CompileExperiment(doc)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Campaign == nil || plan.Campaign.Spec.Scenario.IsZero() {
		t.Fatal("compiled plan lost the campaign or scenario")
	}
	res, err := cloudvar.RunFleet(plan.Campaign.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := cloudvar.BuildScenario("stragglers", map[string]float64{"prob": 0.1}); err != nil {
		t.Fatal(err)
	}
}
