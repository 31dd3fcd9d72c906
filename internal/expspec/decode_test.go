package expspec_test

import (
	"strings"
	"testing"

	"cloudvar/internal/expspec"
)

func TestDecodeStrictUnknownFields(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"root", `{"schemaVersion": 1, "campain": {}}`, `unknown field "campain"`},
		{"campaign", `{"schemaVersion": 1, "campaign": {"hours": 1, "seed": 1, "cloud": "ec2"}}`, `unknown field "campaign.cloud"`},
		{"profile", `{"schemaVersion": 1, "campaign": {"profiles": [{"cloud": "ec2", "zone": "a"}]}}`, `unknown field "campaign.profiles[0].zone"`},
		{"scenario", `{"schemaVersion": 1, "campaign": {"scenario": {"name": "x", "depth": 1}}}`, `unknown field "campaign.scenario.depth"`},
		{"store", `{"schemaVersion": 1, "store": {"dir": "d", "run_id": "x"}}`, `unknown field "store.run_id"`},
		{"drift", `{"schemaVersion": 1, "drift": {"baseline": "day1"}}`, `unknown field "drift.baseline"`},
		{"artifacts", `{"schemaVersion": 1, "artifacts": {"figures": []}}`, `unknown field "artifacts.figures"`},
		{"stopping", `{"schemaVersion": 1, "campaign": {"stopping": {"errorBound": 0.1, "maxReps": 5, "minRep": 3}}}`,
			`unknown field "campaign.stopping.minRep" (known fields in campaign.stopping: confidence, errorBound, maxReps, minReps, quantile)`},
		{"sharding", `{"schemaVersion": 1, "sharding": {"shard": 2}}`,
			`unknown field "sharding.shard" (known fields in sharding: shards, workers)`},
		{"faults", `{"schemaVersion": 1, "faults": {"plan": "crash", "rate": 1}}`,
			`unknown field "faults.rate" (known fields in faults: params, plan, seed)`},
		{"output", `{"schemaVersion": 1, "output": {"json": "out.json"}}`,
			`unknown field "output.json" (known fields in output: csv)`},
		{"workloads", `{"schemaVersion": 2, "workloads": {"rps": 1}}`,
			`unknown field "workloads.rps" (known fields in workloads: aggregateRps, clients, requestKB)`},
		{"client", `{"schemaVersion": 2, "workloads": {"clients": [{"id": "a", "arrival": {"process": "poisson"}, "weight": 1}]}}`,
			`unknown field "workloads.clients[0].weight" (known fields in workloads.clients[0]: arrival, id, rateFraction, sloClass)`},
		{"arrival", `{"schemaVersion": 2, "workloads": {"clients": [{"id": "a", "arrival": {"process": "poisson", "rate": 1}}]}}`,
			`unknown field "workloads.clients[0].arrival.rate" (known fields in workloads.clients[0].arrival: cv, process, shape, times, trace)`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := expspec.Decode([]byte(c.in))
			if err == nil {
				t.Fatal("Decode should fail")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
			// The message also names the fields that would have been
			// accepted.
			if !strings.Contains(err.Error(), "known fields in") {
				t.Errorf("error %q does not list the known fields", err)
			}
		})
	}
}

func TestDecodeTypeErrorsNameField(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"string-hours", `{"schemaVersion": 1, "campaign": {"hours": "six"}}`, "campaign.hours: expected a number"},
		{"negative-seed", `{"schemaVersion": 1, "campaign": {"seed": -1}}`, "campaign.seed: -1 is not an unsigned integer"},
		{"float-version", `{"schemaVersion": 1.5}`, "schemaVersion: 1.5 is not an integer"},
		{"list-store", `{"schemaVersion": 1, "store": ["a"]}`, "store: expected an object, got a list"},
		{"bool-runs", `{"schemaVersion": 1, "drift": {"runs": "day1"}}`, "drift.runs: expected a list"},
		{"num-in-runs", `{"schemaVersion": 1, "drift": {"runs": [3]}}`, "drift.runs[0]: expected a string"},
		{"root-list", `[1]`, "spec: expected an object, got a list"},
		{"dup-key", `{"schemaVersion": 1, "campaign": {"profiles": [{"cloud": "ec2"}], "hours": 1, "seed": 1, "hours": 2}}`,
			`duplicate field "campaign.hours"`},
		{"dup-root-key", `{"schemaVersion": 1, "name": "a", "name": "b"}`, `duplicate field "name"`},
		{"dup-nested-key", `{"schemaVersion": 1, "campaign": {"profiles": [{"cloud": "ec2"}, {"cloud": "gce", "instance": "4", "instance": "8"}], "hours": 1, "seed": 1}}`,
			`duplicate field "campaign.profiles[1].instance"`},
		{"trailing", `{"schemaVersion": 1} {"more": true}`, "data after the document"},
		{"trailing-garbage", `{"schemaVersion": 1} >>>>>>> merge-marker`, "data after the document"},
		{"empty", ``, "spec is empty"},
		{"bool-resume", `{"schemaVersion": 1, "store": {"resume": "yes"}}`, "store.resume: expected a boolean, got a string"},
		{"float-maxreps", `{"schemaVersion": 1, "campaign": {"stopping": {"maxReps": 2.5}}}`, "campaign.stopping.maxReps: 2.5 is not an integer"},
		{"negative-fault-seed", `{"schemaVersion": 1, "faults": {"seed": -1}}`, "faults.seed: -1 is not an unsigned integer"},
		{"string-scale", `{"schemaVersion": 1, "artifacts": {"scale": "big"}}`, "artifacts.scale: expected a number, got a string"},
		{"string-in-times", `{"schemaVersion": 2, "workloads": {"clients": [{"id": "a", "arrival": {"process": "trace", "times": [0, "x"]}}]}}`,
			"workloads.clients[0].arrival.times[1]: expected a number, got a string"},
		{"string-param", `{"schemaVersion": 1, "faults": {"params": {"x": "a"}}}`, "faults.params.x: expected a number, got a string"},
		{"string-profile", `{"schemaVersion": 1, "campaign": {"profiles": ["ec2"]}}`, "campaign.profiles[0]: expected an object, got a string"},
		{"null-campaign", `{"schemaVersion": 1, "campaign": null}`, "campaign: expected an object, got null"},
		// Root keys are checked in the order Encode writes them:
		// campaign before apps.
		{"first-error-in-encode-order", `{"schemaVersion": 2, "apps": [3], "campaign": {"hours": "x"}}`, "campaign.hours: expected a number, got a string"},
		{"missing-arrival", `{"schemaVersion": 2, "workloads": {"clients": [{"id": "a", "rateFraction": 1}]}}`, "workloads.clients[0].arrival: required"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := expspec.Decode([]byte(c.in))
			if err == nil {
				t.Fatal("Decode should fail")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestDecodeFullDocument(t *testing.T) {
	in := `{
  "schemaVersion": 1,
  "name": "full",
  "campaign": {
    "profiles": [{"cloud": "ec2", "instance": "c5.4xlarge"}, {"cloud": "gce", "instance": "4"}],
    "regimes": ["full-speed", "10-30"],
    "repetitions": 3,
    "hours": 0.5,
    "seed": 42,
    "workers": 4,
    "confidence": 0.9,
    "errorBound": 0.1,
    "scenario": {"name": "loss-burst", "params": {"depth": 0.9}}
  },
  "workloads": ["kmeans", "q65"],
  "store": {"dir": "results", "runId": "day1", "resume": true},
  "drift": {"runs": ["day1", "day8"], "tolerance": 0.2, "failOnDrift": true},
  "artifacts": {"ids": ["table1"], "scale": 0.5, "outdir": "out"}
}`
	doc, err := expspec.Decode([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Campaign.Seed != 42 || doc.Campaign.Scenario.Params["depth"] != 0.9 {
		t.Errorf("campaign misdecoded: %+v", doc.Campaign)
	}
	if !doc.Store.Resume || doc.Store.RunID != "day1" {
		t.Errorf("store misdecoded: %+v", doc.Store)
	}
	if !doc.Drift.FailOnDrift || len(doc.Drift.Runs) != 2 {
		t.Errorf("drift misdecoded: %+v", doc.Drift)
	}
	if _, err := doc.Canonical(); err != nil {
		t.Errorf("full document should validate: %v", err)
	}
}

func TestDecodeYAMLSubset(t *testing.T) {
	in := `
# the same document, YAML flavour
schemaVersion: 1
name: yaml-quickstart
campaign:
  profiles:
    - cloud: ec2
      instance: c5.xlarge
    - cloud: gce   # a second cloud
  regimes:
    - full-speed
    - 10-30
  repetitions: 2
  hours: 0.5
  seed: 7
  scenario:
    name: stragglers
    params:
      prob: 0.5
store:
  dir: results
  runId: "day-1"
  resume: true
`
	doc, err := expspec.Decode([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	c := doc.Campaign
	if len(c.Profiles) != 2 || c.Profiles[0].Instance != "c5.xlarge" || c.Profiles[1].Cloud != "gce" {
		t.Errorf("profiles misdecoded: %+v", c.Profiles)
	}
	if len(c.Regimes) != 2 || c.Regimes[1] != "10-30" {
		t.Errorf("regimes misdecoded: %v", c.Regimes)
	}
	if c.Hours != 0.5 || c.Seed != 7 || c.Repetitions != 2 {
		t.Errorf("scalars misdecoded: %+v", c)
	}
	if c.Scenario.Name != "stragglers" || c.Scenario.Params["prob"] != 0.5 {
		t.Errorf("scenario misdecoded: %+v", c.Scenario)
	}
	if doc.Store.RunID != "day-1" || !doc.Store.Resume {
		t.Errorf("store misdecoded: %+v", doc.Store)
	}
	canon, err := doc.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	// A YAML document and the equivalent JSON document are one
	// experiment: identical canonical form, identical hash.
	jsonBytes, err := canon.Encode()
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := expspec.Decode(jsonBytes)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := doc.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := fromJSON.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("YAML and JSON forms hash differently: %.12s vs %.12s", h1, h2)
	}
}

func TestDecodeYAMLQuotedValuesWithComments(t *testing.T) {
	in := `
schemaVersion: 1
name: "my experiment" # quoted, with a trailing comment
campaign:
  profiles:
    - cloud: ec2
  regimes:
    - "full-speed" # quoted list scalar with comment
    - 10-30 # plain list scalar with comment
  hours: 1
  seed: 1
`
	doc, err := expspec.Decode([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Name != "my experiment" {
		t.Errorf("name = %q, comment corrupted the quoted value", doc.Name)
	}
	if len(doc.Campaign.Regimes) != 2 || doc.Campaign.Regimes[0] != "full-speed" || doc.Campaign.Regimes[1] != "10-30" {
		t.Errorf("regimes = %v", doc.Campaign.Regimes)
	}
}

func TestDecodeYAMLStrictness(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"unknown-field", "schemaVersion: 1\ncampaign:\n  minutes: 3\n", `unknown field "campaign.minutes"`},
		{"tabs", "schemaVersion: 1\ncampaign:\n\thours: 1\n", "spaces, not tabs"},
		{"dup-key", "schemaVersion: 1\nname: a\nname: b\n", `duplicate key "name"`},
		{"unterminated-quote", "schemaVersion: 1\nname: \"oops\n", "unterminated quoted value"},
		{"text-after-quote", "schemaVersion: 1\nname: \"a\" b\n", "unexpected text"},
		{"bad-escape", "schemaVersion: 1\nname: \"a\\qb\"\n", "invalid quoted value"},
		{"flow", "schemaVersion: 1\ncampaign:\n  regimes: [full-speed]\n", "flow collections are not supported"},
		{"bare-scalar", "just words\n", `expected "key: value"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := expspec.Decode([]byte(c.in))
			if err == nil {
				t.Fatal("Decode should fail")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
		})
	}
}
