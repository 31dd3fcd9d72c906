package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"cloudvar/internal/expspec"
)

// tinyShapes are small versions of the two campaign workloads.
func tinyShapes() []campaignShape {
	week := weekInproc
	week.name = "week-tiny"
	week.profiles = week.profiles[:2]
	week.regimes = []string{"full-speed", "10-30"}
	week.reps = 2
	week.hours = 0.05

	traffic := trafficHTTP
	traffic.name = "traffic-tiny"
	traffic.profiles = traffic.profiles[:2]
	traffic.hours = 0.02
	traffic.stopping = &expspec.Stopping{ErrorBound: 0.001, MinReps: 3, MaxReps: 5}
	return []campaignShape{week, traffic}
}

func runOnce(t *testing.T, shape campaignShape, rec *recorder) outcome {
	t.Helper()
	b, err := newCampaignBench(shape, defaultSeed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.prepare(); err != nil {
		t.Fatal(err)
	}
	o := b.iterate(1, rec)
	if o.err != nil || o.failed != 0 || o.digest == "" {
		t.Fatalf("%s: err %v, %d of %d units failed", shape.name, o.err, o.failed, o.units)
	}
	if rec != nil {
		if _, err := b.replay(o); err != nil {
			t.Fatalf("%s: replay: %v", shape.name, err)
		}
	}
	return o
}

// The digest covers result bytes only: it must not depend on whether
// shards run in-process or behind HTTP workers, on the shard count, or
// on tracing.
func TestDigestIndependentOfTransportShardsAndTracing(t *testing.T) {
	for _, shape := range tinyShapes() {
		t.Run(shape.name, func(t *testing.T) {
			variants := map[string]campaignShape{}
			for _, shards := range []int{1, 2} {
				for _, http := range []bool{false, true} {
					v := shape
					v.shards, v.workerURL = shards, http
					variants[fmt.Sprintf("http=%v/shards=%d", http, shards)] = v
				}
			}
			want := runOnce(t, shape, nil).digest
			for name, v := range variants {
				if got := runOnce(t, v, nil).digest; got != want {
					t.Errorf("%s: digest %.16s, want %.16s", name, got, want)
				}
			}
			traced := runOnce(t, shape, newRecorder())
			if traced.digest != want {
				t.Errorf("traced digest %.16s, want %.16s", traced.digest, want)
			}
			if traced.layers["shard.execute_calls"] == 0 {
				t.Errorf("traced iteration recorded no shard.execute spans")
			}
		})
	}
}

// Each workload at the default seed reproduces its pinned digest.
func TestPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full size")
	}
	for _, name := range []string{"week-inproc", "traffic-http", "spark-suite"} {
		t.Run(name, func(t *testing.T) {
			b, err := newBench(name, defaultSeed, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := b.prepare(); err != nil {
				t.Fatal(err)
			}
			o := b.iterate(0, nil)
			if o.err != nil || o.failed != 0 {
				t.Fatalf("err %v, %d of %d units failed", o.err, o.failed, o.units)
			}
			if pin := pinnedDigests[name]; o.digest != pin {
				t.Errorf("digest %s, pinned %s", o.digest, pin)
			}
		})
	}
}

func TestSelfTimeCountsConcurrentChildrenOnce(t *testing.T) {
	ms := func(v int64) int64 { return v * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "root", StartNS: ms(0), EndNS: ms(100)},
		{ID: 2, Parent: 1, Name: "a", StartNS: ms(10), EndNS: ms(50)},
		{ID: 3, Parent: 1, Name: "a", StartNS: ms(20), EndNS: ms(60)},
		{ID: 4, Parent: 1, Name: "b", StartNS: ms(70), EndNS: ms(80)},
		{ID: 5, Parent: 2, Name: "c", StartNS: ms(15), EndNS: ms(25)},
	}
	tree := newSpanTree(spans, 0)
	if got := tree.selfMS("root"); got != 40 {
		t.Errorf("root self %v ms, want 40", got)
	}
	if got := tree.selfMS("a"); got != 70 {
		t.Errorf("a self %v ms, want 70", got)
	}
	if got := tree.totalMS("a"); got != 80 {
		t.Errorf("a total %v ms, want 80", got)
	}
	// Batch one: a (40 ms) and a (40 ms) overlap; batch two: b alone.
	if got := barrierWait(tree.named("a")); got != 0 {
		t.Errorf("barrier wait %v, want 0", got)
	}
	calls := []span{
		{StartNS: ms(0), EndNS: ms(30)},
		{StartNS: ms(0), EndNS: ms(10)},
		{StartNS: ms(40), EndNS: ms(45)},
	}
	if got := barrierWait(calls); got != 20*time.Millisecond {
		t.Errorf("barrier wait %v, want 20ms", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles %v %v, want 0.75 2.25", q1, q3)
	}
}

// The metric lists the program prints are the ones BENCHMARK.json
// declares, with the same units, in the same order.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: %s %s, BENCHMARK.json declares %s %s", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, decl.EndToEnd)
	check("per_layer", perLayer, decl.PerLayer)
}
