// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload through the public entry points real campaigns
// use, checks that the output bytes are correct, and prints the
// end-to-end metrics — or, with --trace 1, the per-layer split.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash perfbench/run.sh --workload NAME --steady 10 --seconds S
//
// Workloads (each a closed loop in one process, at most two busy
// goroutines and at most two loopback connections):
//
//   - week-inproc: the §3 measurement campaign on two in-process shards.
//   - traffic-http: campaignd's distributed mode, multi-client traffic
//     and adaptive stopping over two loopback HTTP workers.
//   - spark-suite: every §4 HiBench and TPC-DS app on the Table 4 rig.
//
// One iteration is one set-up followed by one campaign or suite. A run
// repeats iterations for --seconds and reports medians. The last line
// of standard output is a JSON object with the keys correct, attempted,
// failed and metrics.
//
// Times are CPU times of the whole process (user plus system, every
// thread), not wall times: on a shared host of two vCPUs a run's median
// wall time moves by 10 to 30 percent between runs of the same code, as
// neighbours take the CPUs and give them back, and CPU time leaves out
// the time spent waiting for a CPU. What is left is the host's own
// speed, which drifts by several percent over minutes; cpu_refs divides
// it out by counting a campaign's CPU time in CPU times of a fixed
// reference task (ref.go) run between iterations. setup_s is the
// set-up's CPU time. Wall time, CPU time and the reference time are
// reported per layer as host.*.
//
// With --trace 1, iterations alternate between untraced and traced;
// traced iterations record spans around every layer call, the
// per-layer metrics are medians over them, and trace.overhead_ms is
// the traced minus the untraced median wall time. Campaign workloads
// then replay the last traced iteration's cells sequentially to split
// the time inside a cell. The spans are written as JSON to
// .bench_build/spans-NAME.json.
//
// --steady N runs the workload N times as child processes with seeds
// seed..seed+N-1 and prints each end-to-end metric's median, quartiles
// and spread.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"cloudvar/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// outcome is one iteration's measurements.
type outcome struct {
	setup, wall time.Duration
	// cpu is the CPU time the whole process used during wall.
	cpu time.Duration
	// refs are CPU times of the reference task, run before the iteration.
	refs []time.Duration
	// extraSetups are set-ups repeated after the iteration, for a
	// steadier setup_s median.
	extraSetups   []time.Duration
	units, failed int
	emuSec        float64
	allocBytes    uint64
	peakHeap      uint64
	digest        string
	storeBytes    int64
	// err failed the whole iteration (a set-up error, a merge refusal).
	err error
	// layers holds a traced iteration's per-layer metrics.
	layers map[string]float64
	// cells are a traced campaign iteration's merged run, kept for the
	// replay pass.
	cells []store.CellRecord
}

// bench is one workload.
type bench interface {
	// prepare does the untimed one-off work (the drift baseline).
	prepare() error
	// iterate runs one set-up and one measured unit of work; rec is nil
	// for an untraced iteration.
	iterate(i int, rec *recorder) outcome
	// setupOnly times one set-up and tears it down again.
	setupOnly() (time.Duration, error)
	// replay splits a traced iteration's cells by layer.
	replay(o outcome) (map[string]float64, error)
}

func newBench(workload string, seed uint64, dir string) (bench, error) {
	switch workload {
	case "week-inproc":
		return newCampaignBench(weekInproc, seed, dir)
	case "traffic-http":
		return newCampaignBench(trafficHTTP, seed, dir)
	case "spark-suite":
		return newSparkBench(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (week-inproc, traffic-http or spark-suite)", workload)
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, in BENCHMARK.json
// order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_refs", "refs"},
	{"alloc_mb", "MB"},
}

// perLayer are the metrics a traced run reports, in BENCHMARK.json
// order. A layer a workload bypasses reports 0.
var perLayer = []metricDef{
	{"expspec.compile_ms", "ms"},
	{"fleet.fingerprint_ms", "ms"},
	{"store.open_ms", "ms"},
	{"shard.server_start_ms", "ms"},
	{"shard.begin_ms", "ms"},
	{"cloudmodel.cell_ms_p50", "ms"},
	{"cloudmodel.cell_ms_p90", "ms"},
	{"cloudmodel.bins", "count"},
	{"cloudmodel.alloc_mb", "MB"},
	{"workload.serve_ms", "ms"},
	{"workload.requests", "count"},
	{"workload.alloc_mb", "MB"},
	{"fleet.summarize_ms", "ms"},
	{"store.put_ms_p50", "ms"},
	{"store.put_ms_p90", "ms"},
	{"store.bytes", "bytes"},
	{"store.bytes_per_cell", "bytes"},
	{"shard.execute_calls", "count"},
	{"shard.execute_busy_ms", "ms"},
	{"shard.barrier_wait_ms", "ms"},
	{"shard.coord_self_ms", "ms"},
	{"shard.collect_ms", "ms"},
	{"shard.retries", "count"},
	{"wire.requests", "count"},
	{"wire.bytes_out", "bytes"},
	{"wire.bytes_in", "bytes"},
	{"wire.rtt_p50_ms", "ms"},
	{"wire.rtt_p90_ms", "ms"},
	{"store.merge_ms", "ms"},
	{"store.merge_alloc_mb", "MB"},
	{"store.record_precision_ms", "ms"},
	{"longitudinal.load_ms", "ms"},
	{"longitudinal.analyze_ms", "ms"},
	{"longitudinal.render_ms", "ms"},
	{"spark.cluster_build_ms", "ms"},
	{"spark.job_ms_p50", "ms"},
	{"spark.job_ms_p90", "ms"},
	{"spark.jobs", "count"},
	{"spark.stages", "count"},
	{"spark.tasks", "count"},
	{"spark.emu_s", "s"},
	{"heap.peak_live_mb", "MB"},
	{"host.wall_ms", "ms"},
	{"host.cpu_ms", "ms"},
	{"host.ref_cpu_ms", "ms"},
	{"host.units_per_s", "1/s"},
	{"host.emu_speedup", "x"},
	{"trace.wall_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.uncovered_ms", "ms"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: week-inproc, traffic-http or spark-suite")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Int("seconds", 10, "how long one run measures, in seconds")
	traced := fs.Int("trace", 0, "1 reports the per-layer split instead of the end-to-end metrics")
	steady := fs.Int("steady", 0, "run the workload this many times as child processes and print each end-to-end metric's spread")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload NAME --seed N --seconds S (>= 1) --trace 0|1")
		return 2
	}
	if *steady > 0 {
		return runSteady(*workload, *seed, *seconds, *steady, stdout, stderr)
	}

	dir := filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	b, err := newBench(*workload, *seed, dir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := b.prepare(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	var rec *recorder
	if *traced == 1 {
		rec = newRecorder()
	}
	plain, tracedRuns := measure(b, rec, time.Duration(*seconds)*time.Second)
	all := append(append([]outcome(nil), plain...), tracedRuns...)

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	digest, mismatch := checkDigests(*workload, *seed, all)
	for _, o := range all {
		res.Attempted += o.units
		if mismatch {
			res.Failed += o.units
		} else {
			res.Failed += o.failed
		}
		if o.err != nil {
			fmt.Fprintf(stderr, "perfbench: iteration failed: %v\n", o.err)
		}
	}

	fmt.Fprintf(stdout, "perfbench: %s seed %d: %d untraced and %d traced iterations, digest %.16s\n",
		*workload, *seed, len(plain), len(tracedRuns), digest)
	if rec == nil {
		for name, v := range endToEndValues(plain) {
			res.Metrics[name] = v
		}
	} else {
		layers, err := layerValues(b, plain, tracedRuns)
		if err != nil {
			// A replayed cell that differs from the merged run is wrong
			// output, like a digest mismatch.
			fmt.Fprintln(stderr, "perfbench: replay:", err)
			if !mismatch {
				// A digest mismatch has already counted every unit.
				for _, o := range tracedRuns {
					res.Failed += o.units - o.failed
				}
			}
			mismatch = true
		}
		res.Metrics = layers
		if err := rec.writeJSON(filepath.Join(".bench_build", "spans-"+*workload+".json")); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
		}
	}
	if res.Failed > 0 || res.Attempted == 0 {
		res.Correct = false
	}
	printMetrics(stdout, res)
	b2, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b2))
	if mismatch {
		fmt.Fprintln(stderr, "perfbench: output digest mismatch")
		return 1
	}
	return 0
}

const (
	// extraSetups is how many set-ups follow each untraced iteration.
	extraSetups = 4
	// refRuns is how many times the reference task runs before each
	// untraced iteration.
	refRuns = 2
)

// measure repeats iterations for the run's duration: at least three
// untraced ones, and with a recorder alternately untraced and traced,
// at least two of each. A full garbage collection before every
// iteration starts each from the same heap state.
func measure(b bench, rec *recorder, d time.Duration) (plain, traced []outcome) {
	start := time.Now()
	for i := 0; ; i++ {
		runtime.GC()
		if rec != nil && i%2 == 1 {
			// Only the last traced iteration's cells are replayed; drop
			// the previous ones so they do not inflate the live heap.
			if n := len(traced); n > 0 {
				traced[n-1].cells = nil
			}
			traced = append(traced, b.iterate(i, rec))
		} else {
			var refs []time.Duration
			for k := 0; k < refRuns; k++ {
				refs = append(refs, refCPU())
			}
			o := b.iterate(i, nil)
			o.refs = refs
			for k := 0; k < extraSetups; k++ {
				if d, err := b.setupOnly(); err == nil {
					o.extraSetups = append(o.extraSetups, d)
				}
			}
			plain = append(plain, o)
		}
		enough := len(plain) >= 3
		if rec != nil {
			enough = len(plain) >= 2 && len(traced) >= 2
		}
		if enough && time.Since(start) >= d {
			return plain, traced
		}
	}
}

// checkDigests returns the run's output digest and whether it is
// wrong: every iteration must produce the same digest, and at the
// default seed it must equal the pinned one.
func checkDigests(workload string, seed uint64, all []outcome) (string, bool) {
	digest := ""
	mismatch := false
	for _, o := range all {
		if o.err != nil {
			continue
		}
		if digest == "" {
			digest = o.digest
		}
		if o.digest != digest {
			mismatch = true
		}
	}
	if pin, ok := pinnedDigests[workload]; ok && seed == defaultSeed && digest != "" && digest != pin {
		mismatch = true
	}
	return digest, mismatch
}

// endToEndValues reduces untraced iterations to the end-to-end
// metrics: medians over the run, and cpu_refs as the median CPU time of
// an iteration over the median CPU time of the reference task.
func endToEndValues(runs []outcome) map[string]metricValue {
	var setup, cpu, ref, alloc []float64
	for _, o := range runs {
		setup = append(setup, o.setup.Seconds())
		for _, d := range o.extraSetups {
			setup = append(setup, d.Seconds())
		}
		for _, d := range o.refs {
			ref = append(ref, d.Seconds())
		}
		if o.err != nil {
			continue
		}
		cpu = append(cpu, o.cpu.Seconds())
		alloc = append(alloc, mb(o.allocBytes))
	}
	vals := map[string]float64{
		"setup_s":  median(setup),
		"cpu_refs": median(cpu) / median(ref),
		"alloc_mb": median(alloc),
	}
	out := make(map[string]metricValue, len(endToEnd))
	for _, m := range endToEnd {
		out[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

// layerValues reduces traced iterations to the per-layer metrics (the
// median over traced iterations of each), adds the replay split and
// the tracing overhead, and fills 0 for layers the workload bypasses.
func layerValues(b bench, plain, traced []outcome) (map[string]metricValue, error) {
	perName := map[string][]float64{}
	var tracedWall, plainWall, plainCPU, ref, rate, speedup, peak []float64
	var last *outcome
	for i := range traced {
		o := &traced[i]
		if o.err != nil {
			continue
		}
		for k, v := range o.layers {
			perName[k] = append(perName[k], v)
		}
		tracedWall = append(tracedWall, ms(o.wall))
		last = o
	}
	for _, o := range plain {
		for _, d := range o.refs {
			ref = append(ref, ms(d))
		}
		if o.err == nil {
			plainWall = append(plainWall, ms(o.wall))
			plainCPU = append(plainCPU, ms(o.cpu))
			rate = append(rate, float64(o.units-o.failed)/o.wall.Seconds())
			speedup = append(speedup, o.emuSec/o.wall.Seconds())
			peak = append(peak, mb(o.peakHeap))
		}
	}
	vals := map[string]float64{}
	for k, v := range perName {
		vals[k] = median(v)
	}
	vals["heap.peak_live_mb"] = median(peak)
	vals["host.wall_ms"] = median(plainWall)
	vals["host.cpu_ms"] = median(plainCPU)
	vals["host.ref_cpu_ms"] = median(ref)
	vals["host.units_per_s"] = median(rate)
	vals["host.emu_speedup"] = median(speedup)
	vals["trace.wall_ms"] = median(tracedWall)
	vals["trace.overhead_ms"] = median(tracedWall) - median(plainWall)
	var err error
	if last != nil && len(last.cells) > 0 {
		var replayed map[string]float64
		replayed, err = b.replay(*last)
		for k, v := range replayed {
			vals[k] = v
		}
	}
	out := make(map[string]metricValue, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	return out, err
}

// printMetrics writes the human-readable lines above the JSON result:
// every metric by name with its unit, and the error rate.
func printMetrics(w io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	rate := 0.0
	if res.Attempted > 0 {
		rate = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "  %-28s %14.6g (%d of %d units failed)\n", "error_rate", rate, res.Failed, res.Attempted)
}
