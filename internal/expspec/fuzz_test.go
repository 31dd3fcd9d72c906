package expspec_test

import (
	"bytes"
	"flag"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cloudvar/internal/expspec"
)

var updateCorpus = flag.Bool("update", false, "rewrite the committed fuzz seed corpus under testdata/fuzz from the in-code seeds")

// campaignSeed is the small campaign the section seeds hang off.
const campaignSeed = `"campaign": {"profiles": [{"cloud": "ec2", "instance": "c5.xlarge"}], "hours": 0.02, "seed": 7}`

// decodeSeeds is FuzzDecode's seed corpus, keyed by committed file
// name (testdata/fuzz/FuzzDecode): every section of the format, the
// workloads: migration contract, and hostile shapes around it.
var decodeSeeds = map[string][]byte{
	"seed-empty":   []byte(""),
	"seed-minimal": []byte(`{"schemaVersion": 2}`),
	// A full v2 traffic section, all arrival processes.
	"seed-full-section": []byte(`{
  "schemaVersion": 2,
  "name": "fuzz",
  "campaign": {"profiles": [{"cloud": "ec2"}], "hours": 1, "seed": 7},
  "workloads": {
    "aggregateRps": 4,
    "requestKB": 1024,
    "clients": [
      {"id": "web", "rateFraction": 0.4, "sloClass": "interactive", "arrival": {"process": "poisson"}},
      {"id": "etl", "rateFraction": 0.3, "sloClass": "batch", "arrival": {"process": "gamma", "cv": 2}},
      {"id": "scan", "rateFraction": 0.2, "arrival": {"process": "weibull", "shape": 0.7}},
      {"id": "replay", "rateFraction": 0.1, "arrival": {"process": "trace", "times": [0, 1.5, 3]}}
    ]
  }
}`),
	// The v1 alias and its v2 rejection.
	"seed-v1-alias":       []byte(`{"schemaVersion": 1, "workloads": ["kmeans", "q65"]}`),
	"seed-v2-string-list": []byte(`{"schemaVersion": 2, "workloads": ["kmeans"]}`),
	// Hostile shapes around the workloads: boundary.
	"seed-huge-rps":       []byte(`{"schemaVersion": 2, "workloads": {"aggregateRps": 1e308, "clients": []}}`),
	"seed-bad-fraction":   []byte(`{"schemaVersion": 2, "workloads": {"clients": [{"id": "a", "rateFraction": 2}]}}`),
	"seed-object-list":    []byte(`{"schemaVersion": 2, "workloads": [{"id": "a"}]}`),
	"seed-trace-ref":      []byte(`{"schemaVersion": 2, "workloads": {"aggregateRps": 1, "clients": [{"id": "a", "rateFraction": 1, "arrival": {"process": "trace", "trace": "../x.csv"}}]}}`),
	"seed-yaml-partial":   []byte("schemaVersion: 2\nworkloads:\n  aggregateRps: 2\n"),
	"seed-empty-key-torn": []byte(`{"":0`),
	// One seed per remaining section, every field set.
	"seed-campaign-stopping-scenario": []byte(`{"schemaVersion": 2, "campaign": {"profiles": [{"cloud": "ec2", "instance": "c5.xlarge"}, {"cloud": "gce", "instance": "4"}], "regimes": ["full-speed", "10-30"], "repetitions": 8, "hours": 0.02, "seed": 11, "workers": 2, "confidence": 0.9, "errorBound": 0.1, "summarize": "sketch", "stopping": {"quantile": 0.5, "confidence": 0.95, "errorBound": 0.05, "minReps": 3, "maxReps": 8}, "scenario": {"name": "loss-burst", "params": {"depth": 0.9}}}}`),
	"seed-store":                      []byte(`{"schemaVersion": 2, ` + campaignSeed + `, "store": {"dir": "results", "runId": "day1", "resume": true, "encoding": "columnar"}}`),
	"seed-sharding":                   []byte(`{"schemaVersion": 2, ` + campaignSeed + `, "sharding": {"shards": 2, "workers": ["http://127.0.0.1:8081", "http://127.0.0.1:8082"]}}`),
	"seed-faults-params":              []byte(`{"schemaVersion": 2, ` + campaignSeed + `, "faults": {"plan": "crash-restart", "seed": 3, "params": {"at": 1, "probes": 2, "victims": 1}}}`),
	"seed-drift":                      []byte(`{"schemaVersion": 2, "store": {"dir": "results", "runId": "day8"}, "drift": {"runs": ["day1", "day8"], "tolerance": 0.2, "confidence": 0.9, "errorBound": 0.1, "failOnDrift": true}}`),
	"seed-output":                     []byte(`{"schemaVersion": 2, "campaign": {"profiles": [{"cloud": "gce", "instance": "4"}], "regimes": ["10-30"], "hours": 0.02, "seed": 7}, "output": {"csv": "series.csv"}}`),
	"seed-artifacts":                  []byte(`{"schemaVersion": 2, "artifacts": {"ids": ["table1"], "seed": 5, "scale": 0.5, "workers": 2, "outdir": "out"}}`),
	"seed-trace-times":                []byte(`{"schemaVersion": 2, ` + campaignSeed + `, "workloads": {"aggregateRps": 2, "clients": [{"id": "replay", "rateFraction": 1, "arrival": {"process": "trace", "times": [0, 0.25, 0.25, 1.5]}}]}}`),
	"seed-yaml-every-section": []byte(`# every root section (output needs a single cell: no stopping)
schemaVersion: 2
name: fuzz-yaml
campaign:
  profiles:
    - cloud: gce
      instance: "4"
  regimes:
    - full-speed
  repetitions: 1
  hours: 0.02
  seed: 9
  workers: 2
  confidence: 0.95
  errorBound: 0.05
  summarize: exact
  scenario:
    name: stragglers
    params:
      prob: 0.5
apps:
  - kmeans
  - q65
workloads:
  aggregateRps: 3
  requestKB: 64
  clients:
    - id: web
      rateFraction: 0.5
      sloClass: interactive
      arrival:
        process: gamma
        cv: 2
    - id: replay
      rateFraction: 0.5
      arrival:
        process: trace
        times:
          - 0
          - 0.5
store:
  dir: results
  runId: day1
  resume: false
  encoding: columnar
sharding:
  shards: 2
faults:
  plan: crash-restart
  seed: 4
  params:
    probes: 3
drift:
  runs:
    - day1
    - day2
  tolerance: 0.15
  failOnDrift: true
output:
  csv: series.csv
artifacts:
  ids:
    - all
  scale: 0.25
`),
}

// FuzzDecode feeds arbitrary bytes to the spec decoder — the bytes
// campaignd's POST /v1/runs and a worker's POST /v1/execute spec_doc
// accept from the network — and checks the decoder's contract on
// whatever survives:
//
//  1. Decode never panics, whatever the input.
//  2. Any document that decodes and canonicalizes round-trips:
//     Encode → Decode → Canonical reproduces the canonical bytes,
//     every section included, and preserves the spec hash — the
//     content address stored runs are keyed by.
//  3. A canonical document is schemaVersion 2, and a workloads
//     section that survives Canonical compiles to a valid traffic
//     spec (Canonical cannot let an invalid mix through).
//  4. A v1 string-list workloads: decodes as the apps: alias, never
//     as a traffic section.
func FuzzDecode(f *testing.F) {
	for _, name := range slices.Sorted(maps.Keys(decodeSeeds)) {
		f.Add(decodeSeeds[name])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := expspec.Decode(data) // (1) must not panic
		if err != nil {
			return
		}
		canon, err := doc.Canonical()
		if err != nil {
			return
		}
		if canon.SchemaVersion != expspec.SchemaVersion {
			t.Fatalf("canonical schemaVersion = %d, want %d", canon.SchemaVersion, expspec.SchemaVersion)
		}
		// (4) the legacy alias never materializes a traffic section.
		if doc.Workloads == nil && canon.Workloads != nil {
			t.Fatal("canonicalization invented a workloads section")
		}
		// (3) a surviving section compiles to a valid traffic spec.
		if canon.Workloads != nil && canon.Campaign != nil {
			if plan, err := expspec.Compile(canon); err == nil {
				if plan.Campaign == nil || plan.Campaign.Spec.Workload == nil {
					t.Fatal("compiled plan dropped the workloads section")
				}
				if err := plan.Campaign.Spec.Workload.Validate(); err != nil {
					t.Fatalf("Canonical let an invalid traffic mix through: %v", err)
				}
			}
		}
		// (2) round trip preserves every section and the content
		// address.
		enc, err := canon.Encode()
		if err != nil {
			t.Fatalf("canonical document does not encode: %v", err)
		}
		back, err := expspec.Decode(enc)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v\n%s", err, enc)
		}
		again, err := back.Canonical()
		if err != nil {
			t.Fatalf("canonical encoding does not canonicalize: %v\n%s", err, enc)
		}
		enc2, err := again.Encode()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the canonical bytes:\n%s\n%s", enc, enc2)
		}
		h1, err := doc.Hash()
		if err != nil {
			t.Fatalf("hash: %v", err)
		}
		h2, err := back.Hash()
		if err != nil {
			t.Fatalf("round-trip hash: %v", err)
		}
		if h1 != h2 {
			t.Fatalf("round trip moved the spec hash: %.12s -> %.12s\n%s", h1, h2, enc)
		}
	})
}

// TestDecodeSeedCorpusCommitted keeps the committed seed corpus
// (testdata/fuzz/FuzzDecode) in lockstep with decodeSeeds; run with
// -update to regenerate the files.
func TestDecodeSeedCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	for name, data := range decodeSeeds {
		want := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		path := filepath.Join(dir, name)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("seed %s is not committed (run with -update): %v", name, err)
		}
		if string(got) != want {
			t.Errorf("committed seed %s diverged from the in-code seed (run with -update)", name)
		}
	}
}

// TestFuzzWorkloadSeedShapes pins the decoder behaviour of the corpus
// shapes that carry the migration contract, so it is enforced even in
// -run-only test runs.
func TestFuzzWorkloadSeedShapes(t *testing.T) {
	t.Run("v1 string list aliases to apps", func(t *testing.T) {
		doc, err := expspec.Decode([]byte(`{"schemaVersion": 1, "workloads": ["kmeans", "q65"]}`))
		if err != nil {
			t.Fatal(err)
		}
		if doc.Workloads != nil {
			t.Fatal("legacy list decoded as a traffic section")
		}
		if len(doc.Apps) != 2 || doc.Apps[0] != "kmeans" {
			t.Fatalf("apps = %v", doc.Apps)
		}
	})
	t.Run("v2 string list is the exact migration error", func(t *testing.T) {
		_, err := expspec.Decode([]byte(`{"schemaVersion": 2, "workloads": ["kmeans"]}`))
		if err == nil || !strings.Contains(err.Error(), "workloads: expected client objects; string list moved to apps") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("object list names the expected shape", func(t *testing.T) {
		_, err := expspec.Decode([]byte(`{"schemaVersion": 2, "workloads": [{"id": "a"}]}`))
		if err == nil || !strings.Contains(err.Error(), "workloads: expected an object section") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("inline decode rejects trace file references", func(t *testing.T) {
		_, err := expspec.Decode([]byte(`{"schemaVersion": 2, "workloads": {"aggregateRps": 1, "clients": [{"id": "a", "rateFraction": 1, "arrival": {"process": "trace", "trace": "x.csv"}}]}}`))
		if err == nil || !strings.Contains(err.Error(), "file references require decoding from a spec file") {
			t.Fatalf("err = %v", err)
		}
	})
}
