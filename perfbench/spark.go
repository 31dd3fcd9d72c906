package main

// The §4 application layer: every HiBench and TPC-DS app on the Table 4
// token-bucket cluster, once on a fresh cluster each and once in
// consecutive runs on one shared cluster, whose draining budget is the
// Figure 19 carry-over effect. It alone exercises spark and the netem
// fluid network, and bypasses fleet, shard, store and drift.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"time"

	"cloudvar/internal/expspec"
	"cloudvar/internal/simrand"
	"cloudvar/internal/spark"
	"cloudvar/internal/workloads"
)

type sparkBench struct {
	seed uint64
	doc  []byte
}

func newSparkBench(seed uint64) (*sparkBench, error) {
	doc, err := sparkSuiteDoc()
	if err != nil {
		return nil, err
	}
	return &sparkBench{seed: seed, doc: doc}, nil
}

func (b *sparkBench) prepare() error { return nil }

func (b *sparkBench) replay(outcome) (map[string]float64, error) { return nil, nil }

// compile decodes and compiles the apps document, which resolves every
// app against the catalog.
func (b *sparkBench) compile() ([]workloads.App, error) {
	d, err := expspec.Decode(b.doc)
	if err != nil {
		return nil, err
	}
	plan, err := expspec.Compile(d)
	if err != nil {
		return nil, err
	}
	if len(plan.Apps) == 0 {
		return nil, fmt.Errorf("perfbench: apps document resolved no apps")
	}
	return plan.Apps, nil
}

func (b *sparkBench) setupOnly() (time.Duration, error) {
	c0 := cpuTime()
	_, err := b.compile()
	return cpuTime() - c0, err
}

// iterate compiles the apps document (set-up: the catalog and rig
// parameters), then runs every app twice.
func (b *sparkBench) iterate(i int, rec *recorder) (out outcome) {
	t := tracer{rec: rec, run: i}
	setup0 := cpuTime()
	setupID := t.begin("setup")
	id := t.child(setupID).begin("expspec.compile")
	apps, err := b.compile()
	t.end(id)
	t.end(setupID)
	out.setup = cpuTime() - setup0
	out.units = 2 * len(workloads.AllApps())
	if err != nil {
		out.err = err
		out.failed = out.units
		return out
	}
	out.units = 2 * len(apps)

	peak := &heapPeak{}
	h := sha256.New()
	var jobMS []float64
	var stages, tasks int
	src := simrand.New(b.seed)

	allocs0, cpu0 := heapAllocs(), cpuTime()
	wallStart := time.Now()
	wallID := t.begin("wall")
	tw := t.child(wallID)
	build := func(name string) (*spark.Cluster, error) {
		id := tw.begin("spark.cluster_build")
		defer tw.end(id)
		return workloads.Table4Cluster(workloads.BucketCapacityGbit, src.Substream(name))
	}
	runJob := func(c *spark.Cluster, app workloads.App) {
		id := tw.begin("spark.job")
		t0 := time.Now()
		res, err := c.RunJob(app.Job, spark.RunOptions{})
		jobMS = append(jobMS, ms(time.Since(t0)))
		tw.end(id)
		peak.sample()
		if err != nil {
			out.failed++
			hashString(h, "failed "+app.Name)
			return
		}
		out.emuSec += res.Runtime()
		stages += len(res.Stages)
		hashJob(h, res)
		for _, s := range res.Stages {
			tasks += len(s.Tasks)
		}
	}
	for _, app := range apps {
		c, err := build("fresh/" + app.Name)
		if err != nil {
			out.failed++
			hashString(h, "failed "+app.Name)
			continue
		}
		runJob(c, app)
	}
	if shared, err := build("consecutive"); err != nil {
		out.failed += len(apps)
	} else {
		for _, app := range apps {
			runJob(shared, app)
		}
	}
	t.end(wallID)
	out.wall = time.Since(wallStart)
	out.cpu = cpuTime() - cpu0
	out.allocBytes = heapAllocs() - allocs0
	out.peakHeap = peak.value()
	out.digest = hex.EncodeToString(h.Sum(nil))
	if rec == nil {
		return out
	}
	tree := newSpanTree(rec.snapshot(), i)
	out.layers = map[string]float64{
		"expspec.compile_ms":     tree.totalMS("expspec.compile"),
		"spark.cluster_build_ms": tree.totalMS("spark.cluster_build"),
		"spark.job_ms_p50":       quantile(jobMS, 0.5),
		"spark.job_ms_p90":       quantile(jobMS, 0.9),
		"spark.jobs":             float64(len(jobMS)),
		"spark.stages":           float64(stages),
		"spark.tasks":            float64(tasks),
		"spark.emu_s":            out.emuSec,
		"trace.uncovered_ms":     tree.selfMS("wall"),
	}
	return out
}

// hashJob folds a job's name, runtime and every stage's timing bits
// into the digest.
func hashJob(h hash.Hash, res spark.JobResult) {
	hashString(h, res.Job)
	hashFloat(h, res.Runtime())
	for _, s := range res.Stages {
		hashString(h, s.Name)
		hashFloat(h, s.Start)
		hashFloat(h, s.End)
		hashFloat(h, s.Straggle)
	}
}

func hashString(h hash.Hash, s string) {
	h.Write([]byte(s))
	h.Write([]byte{0})
}

func hashFloat(h hash.Hash, f float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	h.Write(b[:])
}
