package main

// Workload generators. A workload is a function of its seed alone: the
// generator emits an experiment-spec document, and the program
// receives nothing but those bytes, through expspec.Decode and
// expspec.Compile — the path campaignd takes for POST /v1/runs.

import (
	"encoding/json"

	"cloudvar/internal/expspec"
	"cloudvar/internal/workloads"
)

// defaultSeed is the seed the pinned digests (pins.go) were taken at.
const defaultSeed = 1

// campaignShape sizes a generated campaign document.
type campaignShape struct {
	name      string
	profiles  []expspec.ProfileRef
	regimes   []string // nil means all three
	reps      int
	hours     float64
	sketch    bool
	scenario  string
	traffic   *expspec.WorkloadSection
	stopping  *expspec.Stopping
	shards    int
	workerURL bool // shards run on loopback HTTP workers
}

// weekInproc is the paper's §3 measurement campaign: three clouds ×
// all three regimes × fixed repetitions of long cells, exact
// summaries, columnar store, two in-process shards.
var weekInproc = campaignShape{
	name: "week-inproc",
	profiles: []expspec.ProfileRef{
		{Cloud: "ec2", Instance: "c5.xlarge"},
		{Cloud: "gce", Instance: "8"},
		{Cloud: "hpccloud", Instance: "8"},
	},
	reps:   4,
	hours:  24,
	shards: 2,
}

// trafficHTTP is campaignd's distributed mode: eight profiles × two
// regimes of short cells under the noisy-neighbor scenario, each cell
// serving a two-class multi-client request mix, sketch summaries and
// adaptive stopping, over two loopback HTTP workers. The request mix is
// the repository's committed one (examples/workloads/experiment.json,
// the mix behind the workload figures): 2 requests per second of
// 8192 KB, 70% interactive Poisson "web" and 30% batch Gamma (CV 2)
// "etl". The stopping bound is set so tight that no group converges:
// every group runs to maxReps over several batch barriers, and the
// cell count is the same at every seed.
var trafficHTTP = campaignShape{
	name: "traffic-http",
	profiles: []expspec.ProfileRef{
		{Cloud: "ec2", Instance: "c5.large"},
		{Cloud: "ec2", Instance: "c5.xlarge"},
		{Cloud: "ec2", Instance: "c5.2xlarge"},
		{Cloud: "ec2", Instance: "c5.4xlarge"},
		{Cloud: "gce", Instance: "4"},
		{Cloud: "gce", Instance: "8"},
		{Cloud: "hpccloud", Instance: "4"},
		{Cloud: "hpccloud", Instance: "8"},
	},
	regimes:  []string{"full-speed", "10-30"},
	hours:    0.2,
	sketch:   true,
	scenario: "noisy-neighbor",
	traffic: &expspec.WorkloadSection{
		AggregateRPS: 2,
		RequestKB:    8192,
		Clients: []expspec.WorkloadClient{
			{ID: "web", RateFraction: 0.7, SLOClass: "interactive", Arrival: expspec.PoissonArrival()},
			{ID: "etl", RateFraction: 0.3, SLOClass: "batch", Arrival: expspec.GammaArrival(2)},
		},
	},
	stopping:  &expspec.Stopping{ErrorBound: 0.001, MinReps: 4, MaxReps: 8},
	shards:    2,
	workerURL: true,
}

// doc emits the campaign's experiment-spec document for a seed. One
// cell worker per shard keeps the process within two busy goroutines;
// campaign.workers and the store and sharding sections are operational
// and change no result byte.
func (s campaignShape) doc(seed uint64) ([]byte, error) {
	c := &expspec.Campaign{
		Profiles:    s.profiles,
		Regimes:     s.regimes,
		Repetitions: s.reps,
		Hours:       s.hours,
		Seed:        seed,
		Workers:     1,
		Stopping:    s.stopping,
	}
	if s.sketch {
		c.Summarize = "sketch"
	}
	if s.scenario != "" {
		c.Scenario = &expspec.ScenarioRef{Name: s.scenario}
	}
	return json.Marshal(expspec.Document{
		SchemaVersion: expspec.SchemaVersion,
		Name:          s.name,
		Campaign:      c,
		Workloads:     s.traffic,
		Store:         &expspec.Store{Dir: "store", RunID: "bench", Encoding: "columnar"},
		Sharding:      &expspec.Sharding{Shards: s.shards},
	})
}

// baselineSeed is the seed of the drift baseline: the same matrix on
// "another day". MatrixKey excludes the seed, so the two runs compare.
func baselineSeed(seed uint64) uint64 { return seed + 1<<32 }

// sparkSuiteDoc lists every application of the §4 catalog (HiBench and
// TPC-DS) in an apps: document.
func sparkSuiteDoc() ([]byte, error) {
	var names []string
	for _, app := range workloads.AllApps() {
		names = append(names, app.Name)
	}
	return json.Marshal(expspec.Document{
		SchemaVersion: expspec.SchemaVersion,
		Name:          "spark-suite",
		Apps:          names,
	})
}
