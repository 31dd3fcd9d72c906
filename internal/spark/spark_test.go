package spark

import (
	"math"
	"slices"
	"strings"
	"testing"

	"cloudvar/internal/netem"
	"cloudvar/internal/simrand"
	"cloudvar/internal/tokenbucket"
)

// fixedCluster builds a small cluster with unshaped 10 Gbps NICs.
func fixedCluster(t *testing.T, nodes, slots int) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		Nodes: nodes, SlotsPerNode: slots,
		NewShaper:   func(int) netem.Shaper { return &netem.FixedShaper{RateGbps: 10} },
		IngressGbps: 10,
	}, simrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// bucketCluster builds a cluster where every node sits behind its own
// token bucket with the given initial budget.
func bucketCluster(t *testing.T, nodes, slots int, budgetGbit float64, seed uint64) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		Nodes: nodes, SlotsPerNode: slots,
		NewShaper: func(int) netem.Shaper {
			sh, err := netem.NewBucketShaper(tokenbucket.Params{
				BudgetGbit: 5000, RefillGbps: 1, HighGbps: 10, LowGbps: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			sh.Bucket.SetTokens(budgetGbit)
			return sh
		},
		IngressGbps:      10,
		ComputeNoiseFrac: 0.03,
	}, simrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func simpleJob(shuffleGbit float64) Job {
	return Job{
		Name: "simple",
		Stages: []StageSpec{
			{Name: "map", Tasks: 8, ComputeSec: 10},
			{Name: "reduce", Tasks: 8, ShuffleGbit: shuffleGbit, ComputeSec: 5},
		},
	}
}

func TestJobValidation(t *testing.T) {
	bad := []Job{
		{},
		{Name: "x"},
		{Name: "x", Stages: []StageSpec{{Name: "s", Tasks: 0}}},
		{Name: "x", Stages: []StageSpec{{Name: "s", Tasks: 1, ComputeSec: -1}}},
		{Name: "x", Stages: []StageSpec{{Name: "s", Tasks: 1, ShuffleGbit: -1}}},
		{Name: "x", Stages: []StageSpec{{Name: "s", Tasks: 1, SkewFrac: -1}}},
		{Name: "x", Stages: []StageSpec{{Name: "s", Tasks: 1, HotPeerFrac: 2}}},
	}
	for i, j := range bad {
		if err := j.Validate(); err == nil {
			t.Errorf("job %d should fail validation", i)
		}
	}
	if err := simpleJob(1).Validate(); err != nil {
		t.Errorf("valid job rejected: %v", err)
	}
}

func TestClusterValidation(t *testing.T) {
	src := simrand.New(1)
	newShaper := func(int) netem.Shaper { return &netem.FixedShaper{RateGbps: 1} }
	bad := []ClusterConfig{
		{Nodes: 1, SlotsPerNode: 1, NewShaper: newShaper, IngressGbps: 1},
		{Nodes: 2, SlotsPerNode: 0, NewShaper: newShaper, IngressGbps: 1},
		{Nodes: 2, SlotsPerNode: 1, IngressGbps: 1},
		{Nodes: 2, SlotsPerNode: 1, NewShaper: newShaper, IngressGbps: 0},
		{Nodes: 2, SlotsPerNode: 1, NewShaper: newShaper, IngressGbps: 1, ComputeNoiseFrac: -1},
	}
	for i, cfg := range bad {
		if _, err := NewCluster(cfg, src); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
	if _, err := NewCluster(ClusterConfig{
		Nodes: 2, SlotsPerNode: 1, NewShaper: newShaper, IngressGbps: 1,
	}, nil); err == nil {
		t.Error("nil source should fail")
	}
	if _, err := NewCluster(ClusterConfig{
		Nodes: 2, SlotsPerNode: 1,
		NewShaper:   func(int) netem.Shaper { return nil },
		IngressGbps: 1,
	}, src); err == nil {
		t.Error("nil shaper from factory should fail")
	}
}

func TestComputeOnlyJobRuntime(t *testing.T) {
	c := fixedCluster(t, 4, 2)
	job := Job{
		Name:   "compute",
		Stages: []StageSpec{{Name: "s", Tasks: 8, ComputeSec: 10}},
	}
	res, err := c.RunJob(job, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 8 tasks on 8 slots: one wave of exactly 10 s (no noise).
	if math.Abs(res.Runtime()-10) > 1e-6 {
		t.Errorf("runtime = %g, want 10", res.Runtime())
	}
}

func TestWavesScheduling(t *testing.T) {
	c := fixedCluster(t, 4, 2)
	job := Job{
		Name:   "waves",
		Stages: []StageSpec{{Name: "s", Tasks: 16, ComputeSec: 10}},
	}
	res, err := c.RunJob(job, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 16 tasks on 8 slots: two waves.
	if math.Abs(res.Runtime()-20) > 1e-6 {
		t.Errorf("runtime = %g, want 20", res.Runtime())
	}
	// All nodes should have run 4 tasks each.
	perNode := map[int]int{}
	for _, tt := range res.Stages[0].Tasks {
		perNode[tt.ExecNode]++
	}
	for node, count := range perNode {
		if count != 4 {
			t.Errorf("node %d ran %d tasks, want 4", node, count)
		}
	}
}

func TestShuffleAddsNetworkTime(t *testing.T) {
	cNoNet := fixedCluster(t, 4, 2)
	resA, err := cNoNet.RunJob(simpleJob(0.001), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cNet := fixedCluster(t, 4, 2)
	resB, err := cNet.RunJob(simpleJob(20), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resB.Runtime() <= resA.Runtime() {
		t.Errorf("shuffle volume did not slow the job: %g vs %g",
			resA.Runtime(), resB.Runtime())
	}
	// Shuffle completion must be recorded between start and end.
	for _, tt := range resB.Stages[1].Tasks {
		if tt.PeerNode < 0 {
			t.Error("shuffle task missing peer")
		}
		if tt.ShuffleAt < tt.Start || tt.ShuffleAt > tt.End {
			t.Errorf("shuffle time %g outside [%g, %g]", tt.ShuffleAt, tt.Start, tt.End)
		}
	}
}

// TestBudgetSensitivity is the core Section 4 behaviour: the same job
// on the same cluster runs slower when the token budget starts low.
func TestBudgetSensitivity(t *testing.T) {
	full := bucketCluster(t, 4, 2, 5000, 7)
	resFull, err := full.RunJob(simpleJob(30), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	empty := bucketCluster(t, 4, 2, 0, 7)
	resEmpty, err := empty.RunJob(simpleJob(30), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resEmpty.Runtime() < resFull.Runtime()*1.2 {
		t.Errorf("empty budget not slower: %g vs %g", resEmpty.Runtime(), resFull.Runtime())
	}
}

// TestStragglerFormation reproduces Figure 18's mechanism: with a
// skewed shuffle and a budget sized to deplete only the hot node, the
// hot node's egress collapses and the stage straggles.
func TestStragglerFormation(t *testing.T) {
	c := bucketCluster(t, 6, 2, 120, 11)
	job := Job{
		Name: "skewed",
		Stages: []StageSpec{
			{Name: "scan", Tasks: 12, ComputeSec: 5},
			{
				Name: "join", Tasks: 36, ShuffleGbit: 15,
				ComputeSec: 5, HotPeerFrac: 0.5,
			},
		},
	}
	res, err := c.RunJob(job, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tokens := c.NodeTokens()
	// The hot node (0) must have drained far more budget than the
	// median node.
	others := 0.0
	for _, v := range tokens[1:] {
		others += v
	}
	others /= float64(len(tokens) - 1)
	if tokens[0] > others*0.5 {
		t.Errorf("hot node tokens %g not depleted vs others %g", tokens[0], others)
	}
	// And its egress volume dominates.
	if res.NodeGbit[0] < 1.5*res.NodeGbit[2] {
		t.Errorf("hot node moved %g Gbit vs node2 %g; expected skew", res.NodeGbit[0], res.NodeGbit[2])
	}
	// Straggling tasks: the slowest join task should be much slower
	// than the median one.
	if res.MaxStraggle() < 1.5 {
		t.Errorf("straggle ratio %g too small for a throttled hot node", res.MaxStraggle())
	}
}

func TestSamplerCadence(t *testing.T) {
	c := fixedCluster(t, 4, 2)
	var times []float64
	_, err := c.RunJob(simpleJob(10), RunOptions{
		SampleInterval: 1,
		Sampler: func(ts float64, rates, tokens []float64) {
			times = append(times, ts)
			if len(rates) != 4 || len(tokens) != 4 {
				t.Errorf("sampler got %d rates, %d tokens", len(rates), len(tokens))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(times) < 5 {
		t.Fatalf("only %d samples", len(times))
	}
	for i := 1; i < len(times); i++ {
		if math.Abs(times[i]-times[i-1]-1) > 1e-9 {
			t.Fatalf("sample spacing %g at %d", times[i]-times[i-1], i)
		}
	}
	// Fixed shapers have no buckets: tokens are NaN.
	_, err = c.RunJob(simpleJob(1), RunOptions{Sampler: func(float64, []float64, []float64) {}})
	if err == nil {
		t.Error("sampler without interval should error")
	}
}

func TestNodeTokensNaNForUnshaped(t *testing.T) {
	c := fixedCluster(t, 3, 1)
	for i, v := range c.NodeTokens() {
		if !math.IsNaN(v) {
			t.Errorf("node %d tokens = %g, want NaN for fixed shaper", i, v)
		}
	}
}

func TestRestRefillsBuckets(t *testing.T) {
	c := bucketCluster(t, 4, 2, 0, 3)
	before := c.NodeTokens()
	c.Rest(100)
	after := c.NodeTokens()
	for i := range after {
		if after[i] <= before[i] {
			t.Errorf("node %d tokens did not refill: %g -> %g", i, before[i], after[i])
		}
		if math.Abs(after[i]-100) > 1e-6 {
			t.Errorf("node %d tokens = %g after 100 s rest, want 100", i, after[i])
		}
	}
}

func TestConsecutiveJobsShareState(t *testing.T) {
	// The Figure 19 pathology: back-to-back runs on the same cluster
	// get slower as budgets deplete.
	// Each run moves ~60 Gbit per node; 100 Gbit of tokens deplete
	// during the second run.
	c := bucketCluster(t, 4, 2, 100, 5)
	var runtimes []float64
	for i := 0; i < 4; i++ {
		res, err := c.RunJob(simpleJob(30), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		runtimes = append(runtimes, res.Runtime())
	}
	if runtimes[3] < runtimes[0]*1.1 {
		t.Errorf("no degradation across consecutive runs: %v", runtimes)
	}
}

func TestJobTotalShuffle(t *testing.T) {
	j := simpleJob(2)
	if got := j.TotalShuffleGbit(); math.Abs(got-16) > 1e-12 {
		t.Errorf("TotalShuffleGbit = %g, want 16", got)
	}
}

func TestJobResultBookkeeping(t *testing.T) {
	c := fixedCluster(t, 4, 2)
	res, err := c.RunJob(simpleJob(5), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Job != "simple" || len(res.Stages) != 2 {
		t.Errorf("result metadata wrong: %+v", res)
	}
	if !strings.HasPrefix(res.Stages[0].Name, "map") {
		t.Errorf("stage order wrong: %v", res.Stages[0].Name)
	}
	total := 0.0
	for _, g := range res.NodeGbit {
		total += g
	}
	want := simpleJob(5).TotalShuffleGbit()
	if math.Abs(total-want) > want*0.01 {
		t.Errorf("node egress total %g != shuffle volume %g", total, want)
	}
	for _, sr := range res.Stages {
		if sr.End < sr.Start {
			t.Error("stage times inverted")
		}
		if len(sr.Tasks) == 0 {
			t.Error("stage recorded no tasks")
		}
	}
}

// TestComputeHeapPopsDueLikeScan holds computeHeap to the scan it
// replaced: computes kept in a slice in schedule order, the next
// completion the least time in it, and each event's due computes
// retired in slice order while the rest keep theirs. Completion times
// fall on a quarter-second grid, so many are equal, and some sit within
// 1e-9 of a grid point on either side; the clock stops at the next
// completion, just short of it, or between events.
func TestComputeHeapPopsDueLikeScan(t *testing.T) {
	src := simrand.New(1)
	var h computeHeap
	var scan, due, want []computeEvent
	now, scheduled, retired := 0.0, 0, 0
	for event := 0; event < 5000; event++ {
		for k := src.Intn(4); k > 0; k-- {
			at := now + float64(src.Intn(5))*0.25
			if src.Bernoulli(0.3) {
				at += float64(src.Intn(5)-2) * 4e-10
			}
			ev := computeEvent{at: at, seq: scheduled, node: src.Intn(3), slot: scheduled}
			scheduled++
			h.push(ev)
			scan = append(scan, ev)
		}
		next := math.Inf(1)
		for _, ev := range scan {
			if ev.at < next {
				next = ev.at
			}
		}
		top := math.Inf(1)
		if len(h) > 0 {
			top = h[0].at
		}
		if math.Float64bits(top) != math.Float64bits(next) {
			t.Fatalf("event %d: heap's next completion %v, scan's %v", event, top, next)
		}
		if math.IsInf(next, 1) {
			continue
		}
		switch src.Intn(3) {
		case 0:
			now = next
		case 1:
			now = math.Max(now, next-6e-10)
		default:
			now = math.Max(now, next-src.Uniform(0, 0.3))
		}
		want = want[:0]
		kept := scan[:0]
		for _, ev := range scan {
			if ev.at <= now+1e-9 {
				want = append(want, ev)
			} else {
				kept = append(kept, ev)
			}
		}
		scan = kept
		due = h.popDue(now+1e-9, due)
		if !slices.Equal(due, want) {
			t.Fatalf("event %d at %v: heap retires %v, scan %v", event, now, due, want)
		}
		retired += len(due)
	}
	if len(h) != len(scan) || retired == 0 {
		t.Fatalf("%d computes left in the heap, %d in the scan, %d retired", len(h), len(scan), retired)
	}
}

func BenchmarkRunJobBucketed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := NewCluster(ClusterConfig{
			Nodes: 12, SlotsPerNode: 4,
			NewShaper: func(int) netem.Shaper {
				sh, _ := netem.NewBucketShaper(tokenbucket.Params{
					BudgetGbit: 1000, RefillGbps: 1, HighGbps: 10, LowGbps: 1,
				})
				return sh
			},
			IngressGbps:      10,
			ComputeNoiseFrac: 0.03,
		}, simrand.New(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		job := Job{
			Name: "bench",
			Stages: []StageSpec{
				{Name: "map", Tasks: 96, ComputeSec: 10},
				{Name: "reduce", Tasks: 96, ShuffleGbit: 10, ComputeSec: 10},
			},
		}
		if _, err := c.RunJob(job, RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
