package expspec_test

import (
	"reflect"
	"strings"
	"testing"

	"cloudvar/internal/expspec"
	"cloudvar/internal/scenario"
	"cloudvar/internal/store"
)

// minimal returns the smallest valid campaign document.
func minimal() expspec.Document {
	return expspec.Document{
		SchemaVersion: 1,
		Campaign: &expspec.Campaign{
			Profiles: []expspec.ProfileRef{{Cloud: "ec2"}},
			Hours:    0.01,
			Seed:     7,
		},
	}
}

func TestCanonicalAppliesDefaults(t *testing.T) {
	canon, err := minimal().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	c := canon.Campaign
	if c.Profiles[0].Instance != "c5.xlarge" {
		t.Errorf("instance not defaulted: %+v", c.Profiles[0])
	}
	if len(c.Regimes) != 3 || c.Regimes[0] != "full-speed" {
		t.Errorf("regimes not expanded: %v", c.Regimes)
	}
	if c.Repetitions != 1 {
		t.Errorf("repetitions = %d, want 1", c.Repetitions)
	}
	if c.Confidence != 0.95 || c.ErrorBound != 0.05 {
		t.Errorf("CI defaults not applied: %g, %g", c.Confidence, c.ErrorBound)
	}
}

func TestCanonicalIsIdempotent(t *testing.T) {
	once, err := minimal().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	twice, err := once.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b1, err := once.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := twice.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("Canonical is not a fixed point:\n%s\nvs\n%s", b1, b2)
	}
}

func TestCanonicalResolvesScenarioParams(t *testing.T) {
	doc := minimal()
	doc.Campaign.Scenario = &expspec.ScenarioRef{Name: "noisy-neighbor", Params: map[string]float64{"depth": 0.8}}
	canon, err := doc.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	p := canon.Campaign.Scenario.Params
	if p["depth"] != 0.8 {
		t.Errorf("override lost: %v", p)
	}
	// The remaining defaults are spelled out so the document replays
	// exactly even if the registry defaults later change.
	if p["mean_gap_sec"] != 900 || p["mean_len_sec"] != 300 {
		t.Errorf("defaults not resolved into the document: %v", p)
	}
}

func TestCanonicalErrorsNamePaths(t *testing.T) {
	cases := []struct {
		name string
		edit func(*expspec.Document)
		want string
	}{
		{"no-version", func(d *expspec.Document) { d.SchemaVersion = 0 }, "schemaVersion: required"},
		{"future-version", func(d *expspec.Document) { d.SchemaVersion = 9 }, "schemaVersion: 9 unsupported"},
		{"no-profiles", func(d *expspec.Document) { d.Campaign.Profiles = nil }, "campaign.profiles: required"},
		{"bad-cloud", func(d *expspec.Document) { d.Campaign.Profiles[0].Cloud = "azure" }, `campaign.profiles[0]: unknown cloud "azure"`},
		{"dup-profile", func(d *expspec.Document) {
			d.Campaign.Profiles = append(d.Campaign.Profiles, expspec.ProfileRef{Cloud: "ec2", Instance: "c5.xlarge"})
		}, "campaign.profiles[1]: duplicate matrix entry"},
		{"bad-regime", func(d *expspec.Document) { d.Campaign.Regimes = []string{"2-2"} }, "campaign.regimes[0]"},
		{"dup-regime", func(d *expspec.Document) { d.Campaign.Regimes = []string{"full-speed", "full-speed"} }, `campaign.regimes[1]: duplicate regime`},
		{"neg-reps", func(d *expspec.Document) { d.Campaign.Repetitions = -1 }, "campaign.repetitions"},
		{"zero-hours", func(d *expspec.Document) { d.Campaign.Hours = 0 }, "campaign.hours"},
		{"bad-confidence", func(d *expspec.Document) { d.Campaign.Confidence = 1.5 }, "campaign.confidence"},
		{"bad-scenario", func(d *expspec.Document) { d.Campaign.Scenario = &expspec.ScenarioRef{Name: "quiet"} }, `campaign.scenario: scenario: unknown scenario "quiet"`},
		{"bad-scenario-param", func(d *expspec.Document) {
			d.Campaign.Scenario = &expspec.ScenarioRef{Name: "stragglers", Params: map[string]float64{"levels": 3}}
		}, `campaign.scenario: scenario: stragglers has no parameter "levels"`},
		{"bad-app", func(d *expspec.Document) { d.Apps = []string{"sieve"} }, `apps[0]`},
		{"dup-app", func(d *expspec.Document) { d.Apps = []string{"kmeans", "kmeans"} }, "apps[1]: duplicate app"},
		{"workloads-no-campaign", func(d *expspec.Document) {
			d.Campaign = nil
			d.Apps = []string{"kmeans"}
			d.Workloads = &expspec.WorkloadSection{AggregateRPS: 4, Clients: []expspec.WorkloadClient{
				{ID: "web", RateFraction: 1, Arrival: expspec.PoissonArrival()},
			}}
		}, "workloads: requires a campaign section"},
		{"workloads-zero-rate", func(d *expspec.Document) {
			d.Workloads = &expspec.WorkloadSection{Clients: []expspec.WorkloadClient{
				{ID: "web", RateFraction: 1, Arrival: expspec.PoissonArrival()},
			}}
		}, "workloads.aggregateRps"},
		{"workloads-no-clients", func(d *expspec.Document) {
			d.Workloads = &expspec.WorkloadSection{AggregateRPS: 4}
		}, "workloads.clients: required"},
		{"workloads-bad-id", func(d *expspec.Document) {
			d.Workloads = &expspec.WorkloadSection{AggregateRPS: 4, Clients: []expspec.WorkloadClient{
				{ID: "-bad", RateFraction: 1, Arrival: expspec.PoissonArrival()},
			}}
		}, "workloads.clients[0].id"},
		{"workloads-dup-id", func(d *expspec.Document) {
			d.Workloads = &expspec.WorkloadSection{AggregateRPS: 4, Clients: []expspec.WorkloadClient{
				{ID: "web", RateFraction: 0.5, Arrival: expspec.PoissonArrival()},
				{ID: "web", RateFraction: 0.5, Arrival: expspec.PoissonArrival()},
			}}
		}, "workloads.clients[1].id: duplicate"},
		{"workloads-bad-fraction-sum", func(d *expspec.Document) {
			d.Workloads = &expspec.WorkloadSection{AggregateRPS: 4, Clients: []expspec.WorkloadClient{
				{ID: "web", RateFraction: 0.5, Arrival: expspec.PoissonArrival()},
			}}
		}, "rate fractions sum to 0.5"},
		{"workloads-bad-arrival", func(d *expspec.Document) {
			d.Workloads = &expspec.WorkloadSection{AggregateRPS: 4, Clients: []expspec.WorkloadClient{
				{ID: "web", RateFraction: 1, Arrival: expspec.GammaArrival(0)},
			}}
		}, "workloads.clients[0].arrival: gamma arrivals require cv > 0"},
		{"store-no-dir", func(d *expspec.Document) { d.Store = &expspec.Store{RunID: "day1"} }, "store.dir: required"},
		{"store-no-runid", func(d *expspec.Document) { d.Store = &expspec.Store{Dir: "results"} }, "store.runId: required"},
		{"store-bad-runid", func(d *expspec.Document) { d.Store = &expspec.Store{Dir: "results", RunID: "../evil"} }, "store.runId"},
		{"drift-no-store", func(d *expspec.Document) { d.Drift = &expspec.Drift{} }, "drift: requires a store section"},
		{"csv-matrix", func(d *expspec.Document) {
			d.Campaign.Repetitions = 2
			d.Output = &expspec.Output{CSV: "raw.csv"}
		}, "output.csv: needs a single campaign cell"},
		{"empty-output", func(d *expspec.Document) { d.Output = &expspec.Output{} }, "output: section is empty"},
		{"bad-artifact", func(d *expspec.Document) { d.Artifacts = &expspec.Artifacts{IDs: []string{"figure99"}} }, `artifacts.ids[0]: unknown artifact "figure99"`},
		{"bad-scale", func(d *expspec.Document) { d.Artifacts = &expspec.Artifacts{Scale: 2} }, "artifacts.scale"},
		{"empty-doc", func(d *expspec.Document) { d.Campaign = nil }, "spec defines nothing to run"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			doc := minimal()
			c.edit(&doc)
			_, err := doc.Canonical()
			if err == nil {
				t.Fatal("Canonical should fail")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestHashIgnoresOperationalFields(t *testing.T) {
	base, err := minimal().Hash()
	if err != nil {
		t.Fatal(err)
	}
	variants := []func(*expspec.Document){
		func(d *expspec.Document) { d.Name = "renamed" },
		func(d *expspec.Document) { d.Campaign.Workers = 8 },
		func(d *expspec.Document) { d.Store = &expspec.Store{Dir: "elsewhere", RunID: "day9", Resume: true} },
	}
	for i, edit := range variants {
		doc := minimal()
		edit(&doc)
		h, err := doc.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h != base {
			t.Errorf("variant %d changed the hash: operational fields must not be identity", i)
		}
	}

	// The CSV output path is operational too (needs a single-cell
	// matrix, so it gets its own pair).
	single := minimal()
	single.Campaign.Regimes = []string{"full-speed"}
	h1, err := single.Hash()
	if err != nil {
		t.Fatal(err)
	}
	withCSV := minimal()
	withCSV.Campaign.Regimes = []string{"full-speed"}
	withCSV.Output = &expspec.Output{CSV: "raw.csv"}
	h2, err := withCSV.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("output.csv changed the hash: output paths must not be identity")
	}
}

func TestHashSeesIdentityFields(t *testing.T) {
	base, err := minimal().Hash()
	if err != nil {
		t.Fatal(err)
	}
	variants := []func(*expspec.Document){
		func(d *expspec.Document) { d.Campaign.Seed = 8 },
		func(d *expspec.Document) { d.Campaign.Hours = 0.02 },
		func(d *expspec.Document) { d.Campaign.Repetitions = 2 },
		func(d *expspec.Document) { d.Campaign.Regimes = []string{"full-speed"} },
		func(d *expspec.Document) { d.Campaign.Profiles[0] = expspec.ProfileRef{Cloud: "gce"} },
		func(d *expspec.Document) { d.Campaign.Scenario = &expspec.ScenarioRef{Name: "stragglers"} },
		func(d *expspec.Document) { d.Apps = []string{"kmeans"} },
		func(d *expspec.Document) {
			d.Workloads = &expspec.WorkloadSection{AggregateRPS: 4, Clients: []expspec.WorkloadClient{
				{ID: "web", RateFraction: 1, Arrival: expspec.PoissonArrival()},
			}}
		},
	}
	for i, edit := range variants {
		doc := minimal()
		edit(&doc)
		h, err := doc.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h == base {
			t.Errorf("variant %d kept the hash: identity fields must move it", i)
		}
	}
}

// TestHashEqualAcrossExpressions: the same experiment expressed three
// ways — sparse document, fully canonical document, fluent builder —
// hashes identically.
func TestHashEqualAcrossExpressions(t *testing.T) {
	sparse := expspec.Document{
		SchemaVersion: 1,
		Campaign: &expspec.Campaign{
			Profiles: []expspec.ProfileRef{{Cloud: "gce"}},
			Regimes:  []string{"all"},
			Hours:    0.5,
			Seed:     3,
		},
	}
	explicit := expspec.Document{
		SchemaVersion: 1,
		Name:          "different label, same experiment",
		Campaign: &expspec.Campaign{
			Profiles:    []expspec.ProfileRef{{Cloud: "gce", Instance: "8"}},
			Regimes:     []string{"full-speed", "10-30", "5-30"},
			Repetitions: 1,
			Hours:       0.5,
			Seed:        3,
			Workers:     16,
			Confidence:  0.95,
			ErrorBound:  0.05,
		},
	}
	built, err := expspec.NewExperiment("quick").
		WithProfile("gce", "").
		WithDuration(0.5).
		WithSeed(3).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	h1, err := sparse.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := explicit.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h3, err := built.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 || h2 != h3 {
		t.Fatalf("equal experiments hash differently: %.12s %.12s %.12s", h1, h2, h3)
	}
}

// TestCanonicalIdempotentForUserScenario: a user-registered scenario
// (no parameterised constructor) survives the canonicalize → resolve
// → re-canonicalize cycle, because restating its registered params is
// not an override.
func TestCanonicalIdempotentForUserScenario(t *testing.T) {
	sc := scenario.Scenario{
		Name:        "expspec-test-custom",
		Description: "registered by the expspec tests",
		Params:      map[string]float64{"depth": 0.4},
		Conditions:  []scenario.Condition{scenario.Overlay{Depth: 0.4}},
	}
	if err := scenario.Register(sc); err != nil {
		t.Fatal(err)
	}
	doc := minimal()
	doc.Campaign.Scenario = &expspec.ScenarioRef{Name: sc.Name}
	canon, err := doc.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if canon.Campaign.Scenario.Params["depth"] != 0.4 {
		t.Errorf("params not resolved: %v", canon.Campaign.Scenario.Params)
	}
	if _, err := canon.Canonical(); err != nil {
		t.Fatalf("Canonical is not idempotent for a user scenario: %v", err)
	}
	plan, err := expspec.Compile(doc)
	if err != nil {
		t.Fatalf("Compile failed for a user scenario: %v", err)
	}
	if plan.Campaign.Spec.Scenario.Name != sc.Name {
		t.Errorf("compiled spec lost the scenario: %+v", plan.Campaign.Spec.Scenario)
	}
}

// TestCompilePlanSectionsCopyTheDocument: each plan section equals
// its canonical document section, and an operational override on the
// plan (cloudbench -resume, reproduce -workers) never reaches plan.Doc.
func TestCompilePlanSectionsCopyTheDocument(t *testing.T) {
	doc := minimal()
	doc.Campaign.Regimes = []string{"full-speed"}
	doc.Store = &expspec.Store{Dir: "results", RunID: "day2", Encoding: "columnar"}
	doc.Sharding = &expspec.Sharding{Workers: []string{"http://a:1", "http://b:2"}}
	doc.Faults = &expspec.Faults{Plan: "stall"}
	doc.Drift = &expspec.Drift{Runs: []string{"day1", "day2"}, FailOnDrift: true}
	doc.Output = &expspec.Output{CSV: "series.csv"}
	doc.Artifacts = &expspec.Artifacts{IDs: []string{"table1"}}
	plan, err := expspec.Compile(doc)
	if err != nil {
		t.Fatal(err)
	}
	sections := []struct {
		name      string
		plan, doc any
	}{
		{"store", plan.Store, plan.Doc.Store},
		{"sharding", plan.Sharding, plan.Doc.Sharding},
		{"faults", plan.Faults, plan.Doc.Faults},
		{"drift", plan.Drift, plan.Doc.Drift},
		{"artifacts", plan.Artifacts, plan.Doc.Artifacts},
	}
	for _, s := range sections {
		if reflect.ValueOf(s.plan).IsNil() || !reflect.DeepEqual(s.plan, s.doc) {
			t.Errorf("plan %s section %+v, document section %+v", s.name, s.plan, s.doc)
		}
	}
	if plan.CSV != "series.csv" {
		t.Errorf("plan CSV = %q, want series.csv", plan.CSV)
	}

	plan.Store.Resume = true
	plan.Artifacts.Workers = 8
	if plan.Doc.Store.Resume || plan.Doc.Artifacts.Workers != 0 {
		t.Errorf("plan overrides reached the document: store %+v, artifacts %+v", plan.Doc.Store, plan.Doc.Artifacts)
	}

	bare, err := expspec.Compile(minimal())
	if err != nil {
		t.Fatal(err)
	}
	if bare.Store != nil || bare.Sharding != nil || bare.Faults != nil || bare.Drift != nil || bare.Artifacts != nil {
		t.Errorf("absent sections compiled to non-nil plan sections: %+v", bare)
	}
}

// TestCompileErrors: documents whose canonical form is valid but whose
// campaign the fleet refuses fail to compile, with the campaign named.
func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name string
		edit func(*expspec.Document)
		want string
	}{
		// 1e12 rps over the 36 s cell would replay 3.6e13 requests.
		{"workloads-requests-per-cell", func(d *expspec.Document) {
			d.Workloads = &expspec.WorkloadSection{AggregateRPS: 1e12, Clients: []expspec.WorkloadClient{
				{ID: "web", RateFraction: 1, Arrival: expspec.PoissonArrival()},
			}}
		}, "campaign: fleet: workload rate 1e+12 rps over a 36 s cell is above the bound of 4194304 requests per cell"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			doc := minimal()
			c.edit(&doc)
			if _, err := doc.Canonical(); err != nil {
				t.Fatalf("Canonical: %v", err)
			}
			_, err := expspec.Compile(doc)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Compile error %v, want %q", err, c.want)
			}
		})
	}
}

func TestStoreRunIDValidation(t *testing.T) {
	if !store.ValidRunID("day-1.v2") {
		t.Error("day-1.v2 should be a valid run id")
	}
	for _, bad := range []string{"", ".hidden", "a/b", "a b"} {
		if store.ValidRunID(bad) {
			t.Errorf("%q should be rejected", bad)
		}
	}
}
