package expspec_test

// The spec layer's property tests: decode → canonicalize → re-encode
// → decode is a fixed point over randomly generated documents, equal
// documents always produce equal hashes, and a compiled campaign is
// bit-identical at workers=1 vs 8 — the document inherits the fleet's
// determinism contract end to end.

import (
	"fmt"
	"math/rand"
	"testing"

	"cloudvar/internal/expspec"
	"cloudvar/internal/fleet"
	"cloudvar/internal/scenario"
	"cloudvar/internal/testutil"
	"cloudvar/internal/workload"
)

// genDocument generates a random valid document from rng.
func genDocument(rng *rand.Rand) expspec.Document {
	doc := expspec.Document{SchemaVersion: 1}
	if rng.Intn(2) == 0 {
		doc.Name = fmt.Sprintf("doc-%d", rng.Intn(1000))
	}

	pool := []expspec.ProfileRef{
		{Cloud: "ec2"}, {Cloud: "ec2", Instance: "c5.4xlarge"},
		{Cloud: "gce"}, {Cloud: "gce", Instance: "4"},
		{Cloud: "hpccloud"}, {Cloud: "hpccloud", Instance: "4"},
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	c := &expspec.Campaign{
		Profiles: pool[:1+rng.Intn(3)],
		Hours:    []float64{0.01, 0.1, 1, 6.5}[rng.Intn(4)],
		Seed:     rng.Uint64(),
	}
	switch rng.Intn(4) {
	case 1:
		c.Regimes = []string{"all"}
	case 2:
		c.Regimes = []string{"full-speed"}
	case 3:
		c.Regimes = []string{"10-30", "5-30"}
	}
	c.Repetitions = rng.Intn(4)
	c.Workers = rng.Intn(9)
	if rng.Intn(2) == 0 {
		c.Confidence, c.ErrorBound = 0.9, 0.1
	}
	if rng.Intn(3) == 0 {
		all := scenario.All()
		c.Scenario = &expspec.ScenarioRef{Name: all[rng.Intn(len(all))].Name}
	}
	doc.Campaign = c

	if rng.Intn(3) == 0 {
		doc.Apps = [][]string{{"kmeans"}, {"q65"}, {"kmeans", "q65"}}[rng.Intn(3)]
	}
	if rng.Intn(3) == 0 {
		arrivals := []expspec.WorkloadArrival{
			expspec.PoissonArrival(),
			expspec.GammaArrival(0.5 + rng.Float64()*2),
			{Process: workload.Weibull, Shape: 0.5 + rng.Float64()*2},
			{Process: workload.Trace, Times: []float64{0, 0.5, 1.25, 3}},
		}
		w := &expspec.WorkloadSection{AggregateRPS: 1 + rng.Float64()*20}
		if rng.Intn(2) == 0 {
			w.RequestKB = float64(1 + rng.Intn(4096))
		}
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			w.Clients = append(w.Clients, expspec.WorkloadClient{
				ID:           fmt.Sprintf("client%d", i),
				RateFraction: 1 / float64(n),
				SLOClass:     []string{"", "interactive", "batch"}[rng.Intn(3)],
				Arrival:      arrivals[rng.Intn(len(arrivals))],
			})
		}
		// Fractions must sum to exactly 1; 1/n summed n times can miss
		// by an ulp, so give the last client the remainder.
		w.Clients[n-1].RateFraction = 1 - (1/float64(n))*float64(n-1)
		doc.Workloads = w
	}
	if rng.Intn(3) == 0 {
		doc.Store = &expspec.Store{Dir: "results", RunID: fmt.Sprintf("day%d", rng.Intn(30)), Resume: rng.Intn(2) == 0}
		if rng.Intn(2) == 0 {
			doc.Drift = &expspec.Drift{Runs: []string{"day1", "day8"}, FailOnDrift: rng.Intn(2) == 0}
		}
	}
	if rng.Intn(4) == 0 {
		doc.Artifacts = &expspec.Artifacts{IDs: []string{"table1"}, Scale: 0.5}
	}
	return doc
}

func TestRoundTripFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(20200225)) // the paper's NSDI day
	for i := 0; i < 300; i++ {
		doc := genDocument(rng)
		canon, err := doc.Canonical()
		if err != nil {
			t.Fatalf("doc %d: generator produced an invalid document: %v", i, err)
		}
		enc, err := canon.Encode()
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		dec, err := expspec.Decode(enc)
		if err != nil {
			t.Fatalf("doc %d: canonical encoding does not re-decode: %v\n%s", i, err, enc)
		}
		canon2, err := dec.Canonical()
		if err != nil {
			t.Fatalf("doc %d: re-decoded document does not validate: %v", i, err)
		}
		enc2, err := canon2.Encode()
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		if string(enc) != string(enc2) {
			t.Fatalf("doc %d: decode∘canonicalize∘encode is not a fixed point:\n%s\nvs\n%s", i, enc, enc2)
		}

		// Equal documents (the original and its canonical round trip)
		// hash equally.
		h1, err := doc.Hash()
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		h2, err := dec.Hash()
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		if h1 != h2 {
			t.Fatalf("doc %d: hash changed across the round trip: %.12s vs %.12s", i, h1, h2)
		}
	}
}

// TestCompileDeterministicAcrossWorkers: one document, compiled and
// executed at workers=1 and workers=8, produces byte-identical
// campaign results.
func TestCompileDeterministicAcrossWorkers(t *testing.T) {
	runAt := func(workers int) string {
		t.Helper()
		doc, err := expspec.NewExperiment("det").
			WithProfile("ec2", "c5.xlarge").
			WithProfile("hpccloud", "4").
			WithRegimes("full-speed", "10-30").
			WithRepetitions(2).
			WithDuration(0.02).
			WithSeed(99).
			WithWorkers(workers).
			WithScenario("noisy-neighbor", map[string]float64{"depth": 0.6}).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		plan, err := expspec.Compile(doc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fleet.Run(plan.Campaign.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		return testutil.EncodeResult(t, res)
	}
	if runAt(1) != runAt(8) {
		t.Fatal("compiled campaign differs between workers=1 and workers=8")
	}
}

// TestCompileEqualDocumentsEqualSpecs: two expressions of one
// experiment compile to fleet specs with identical store keys.
func TestCompileEqualDocumentsEqualSpecs(t *testing.T) {
	sparse := expspec.Document{
		SchemaVersion: 1,
		Campaign: &expspec.Campaign{
			Profiles: []expspec.ProfileRef{{Cloud: "ec2"}},
			Hours:    0.05,
			Seed:     7,
		},
	}
	built, err := expspec.NewExperiment("same").
		WithProfile("ec2", "c5.xlarge").
		WithRegimes("all").
		WithRepetitions(1).
		WithDuration(0.05).
		WithSeed(7).
		WithWorkers(4).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	p1, err := expspec.Compile(sparse)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := expspec.Compile(built)
	if err != nil {
		t.Fatal(err)
	}
	k1 := testutil.SpecKeys(t, p1.Campaign.Spec)
	k2 := testutil.SpecKeys(t, p2.Campaign.Spec)
	if k1 != k2 {
		t.Fatalf("equal documents compile to different store keys: %v vs %v", k1, k2)
	}
	if p1.Hash != p2.Hash {
		t.Fatalf("equal documents hash differently: %.12s vs %.12s", p1.Hash, p2.Hash)
	}
}
