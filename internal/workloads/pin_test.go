package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"cloudvar/internal/netem"
	"cloudvar/internal/simrand"
	"cloudvar/internal/spark"
)

// TestSuiteTimingsPinned runs every app on a fresh Table 4 cluster and
// then back to back on one consecutive cluster, at a full and at a
// starved initial budget, and hashes the bits of every job runtime,
// stage start and end and task end. The pin holds the Spark engine and
// the fluid network under it to their timings bit for bit.
func TestSuiteTimingsPinned(t *testing.T) {
	const want = "bc0b179da9175689da873c906dcc30d83df1b42a9ca6b5a75f4fb50a45713976"
	src := simrand.New(1)
	h := sha256.New()
	run := func(c *spark.Cluster, app App) {
		res, err := c.RunJob(app.Job, spark.RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		hashBits(h, res.Runtime())
		for _, s := range res.Stages {
			hashBits(h, s.Start)
			hashBits(h, s.End)
			for _, task := range s.Tasks {
				hashBits(h, task.End)
			}
		}
	}
	cluster := func(budget float64, name string) *spark.Cluster {
		c, err := Table4Cluster(budget, src.Substream(name))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	apps := AllApps()
	for _, budget := range []float64{BucketCapacityGbit, 100} {
		for _, app := range apps {
			run(cluster(budget, "fresh/"+app.Name), app)
		}
		shared := cluster(budget, "consecutive")
		for _, app := range apps {
			run(shared, app)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("suite timings digest %s, pinned %s", got, want)
	}
}

// TestCPUCreditTimingsPinned runs every app twice on a fresh cluster
// whose vCPUs draw on CPU-credit buckets, and hashes the bits of every
// job runtime and task end. Four slots per node retire computes that
// are due together, so the pin holds the order in which a stage retires
// them: it decides which slot, and so which credit bucket, each node
// hands the next task.
func TestCPUCreditTimingsPinned(t *testing.T) {
	const want = "f0ce00dca3eec9dbb9fdfdb82e9f393a614f242ead868fcfcc2ead3cc5122e40"
	cfg := spark.ClusterConfig{
		Nodes:        4,
		SlotsPerNode: 4,
		NewShaper:    func(int) netem.Shaper { return &netem.FixedShaper{RateGbps: 10} },
		IngressGbps:  10,
		CPUBurst:     &spark.CPUBurstParams{BudgetCPUSec: 30, BaselineFrac: 0.3, EarnRate: 0.3},
	}
	h := sha256.New()
	for _, app := range AllApps() {
		c, err := spark.NewCluster(cfg, simrand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			res, err := c.RunJob(app.Job, spark.RunOptions{})
			if err != nil {
				t.Fatalf("%s: %v", app.Name, err)
			}
			hashBits(h, res.Runtime())
			for _, s := range res.Stages {
				for _, task := range s.Tasks {
					hashBits(h, task.End)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("CPU-credit timings digest %s, pinned %s", got, want)
	}
}

// TestSuiteResultsPinned hashes every field of every JobResult the two
// timing pins above produce: the Table 4 suite fresh and consecutive at
// a full and a starved budget, and the CPU-credit rig twice per app.
// Beside the times those pins hash, it covers each job's start and
// per-node egress, each stage's name and straggle ratio, and each
// task's stage, index, nodes, start and shuffle completion, so an
// engine change that keeps the timings but moves a task to another
// node or peer, or miscounts a straggler, fails it.
func TestSuiteResultsPinned(t *testing.T) {
	const want = "1dacb18e426ac925e2936ca56048d888c6c3f95e3155e20d058d6414caccf9fe"
	h := sha256.New()
	run := func(c *spark.Cluster, app App) {
		res, err := c.RunJob(app.Job, spark.RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		hashJobResult(h, res)
	}
	src := simrand.New(1)
	cluster := func(budget float64, name string) *spark.Cluster {
		c, err := Table4Cluster(budget, src.Substream(name))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	apps := AllApps()
	for _, budget := range []float64{BucketCapacityGbit, 100} {
		for _, app := range apps {
			run(cluster(budget, "fresh/"+app.Name), app)
		}
		shared := cluster(budget, "consecutive")
		for _, app := range apps {
			run(shared, app)
		}
	}
	credits := spark.ClusterConfig{
		Nodes:        4,
		SlotsPerNode: 4,
		NewShaper:    func(int) netem.Shaper { return &netem.FixedShaper{RateGbps: 10} },
		IngressGbps:  10,
		CPUBurst:     &spark.CPUBurstParams{BudgetCPUSec: 30, BaselineFrac: 0.3, EarnRate: 0.3},
	}
	for _, app := range apps {
		c, err := spark.NewCluster(credits, simrand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		run(c, app)
		run(c, app)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("suite results digest %s, pinned %s", got, want)
	}
}

// hashJobResult writes every field of res to h: names with their
// lengths, integers and float bits as 8-byte words.
func hashJobResult(h hash.Hash, res spark.JobResult) {
	hashString(h, res.Job)
	hashBits(h, res.Start)
	hashBits(h, res.End)
	hashInt(h, len(res.NodeGbit))
	for _, g := range res.NodeGbit {
		hashBits(h, g)
	}
	hashInt(h, len(res.Stages))
	for _, s := range res.Stages {
		hashString(h, s.Name)
		hashBits(h, s.Start)
		hashBits(h, s.End)
		hashBits(h, s.Straggle)
		hashInt(h, len(s.Tasks))
		for _, task := range s.Tasks {
			hashInt(h, task.Stage)
			hashInt(h, task.Index)
			hashInt(h, task.ExecNode)
			hashInt(h, task.PeerNode)
			hashBits(h, task.Start)
			hashBits(h, task.ShuffleAt)
			hashBits(h, task.End)
		}
	}
}

func hashString(h hash.Hash, s string) {
	hashInt(h, len(s))
	h.Write([]byte(s))
}

func hashInt(h hash.Hash, v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	h.Write(b[:])
}

func hashBits(h hash.Hash, f float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	h.Write(b[:])
}
