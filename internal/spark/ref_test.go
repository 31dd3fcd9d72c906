package spark

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"cloudvar/internal/netem"
	"cloudvar/internal/simrand"
	"cloudvar/internal/tokenbucket"
)

// The engine as it was before a cluster's stages shared one working
// memory: RunJob, runStage and straggleRatio verbatim, renamed with a
// ref prefix, but for the shuffle read's StartFlow call, which passes
// its per-read closure with tag 0. TestRunJobMatchesReference and
// FuzzRunJob hold the engine to it field for field and bit for bit.

// refRunJob is RunJob as it was.
func (c *Cluster) refRunJob(job Job, opts RunOptions) (JobResult, error) {
	if err := job.Validate(); err != nil {
		return JobResult{}, err
	}
	if opts.Sampler != nil && opts.SampleInterval <= 0 {
		return JobResult{}, fmt.Errorf("spark: sampler requires positive interval")
	}

	res := JobResult{Job: job.Name, Start: c.net.Now()}
	startGbit := c.refNodeMoved()

	nextSample := math.Inf(1)
	if opts.Sampler != nil {
		nextSample = c.net.Now() + opts.SampleInterval
	}

	for si, spec := range job.Stages {
		sr, err := c.refRunStage(si, spec, &nextSample, opts)
		if err != nil {
			return res, fmt.Errorf("spark: job %q stage %q: %w", job.Name, spec.Name, err)
		}
		res.Stages = append(res.Stages, sr)
	}

	res.End = c.net.Now()
	endGbit := c.refNodeMoved()
	res.NodeGbit = make([]float64, c.cfg.Nodes)
	for i := range res.NodeGbit {
		res.NodeGbit[i] = endGbit[i] - startGbit[i]
	}
	return res, nil
}

func (c *Cluster) refNodeMoved() []float64 {
	out := make([]float64, c.cfg.Nodes)
	for i, nic := range c.nics {
		out[i] = nic.MovedGbit()
	}
	return out
}

// refRunStage is runStage as it was.
func (c *Cluster) refRunStage(stageIdx int, spec StageSpec, nextSample *float64, opts RunOptions) (StageResult, error) {
	sr := StageResult{Name: spec.Name, Start: c.net.Now()}

	// freeList holds each node's available slot indices; slot
	// identity matters when per-vCPU CPU-credit buckets are active.
	freeList := make([][]int, c.cfg.Nodes)
	for i := range freeList {
		for sIdx := 0; sIdx < c.cfg.SlotsPerNode; sIdx++ {
			freeList[i] = append(freeList[i], sIdx)
		}
	}
	pending := spec.Tasks
	launched := 0
	remaining := spec.Tasks
	tasks := make([]TaskTrace, spec.Tasks)
	var computes computeHeap
	var due []computeEvent
	scheduled := 0
	schedule := func(at float64, task *TaskTrace, node, slot int) {
		computes.push(computeEvent{at: at, seq: scheduled, task: task, node: node, slot: slot})
		scheduled++
	}

	taskDuration := func(node, slot int) float64 {
		d := spec.ComputeSec * c.nodeSpeed[node]
		if c.cfg.ComputeNoiseFrac > 0 {
			d *= c.src.LogNormal(0, c.cfg.ComputeNoiseFrac)
		}
		if spec.SkewFrac > 0 {
			d *= c.src.LogNormal(0, spec.SkewFrac)
		}
		if c.cpuBuckets != nil {
			bucket := c.cpuBuckets[node][slot]
			// Credits accrued while the slot sat idle (or waited on
			// the shuffle read).
			if gap := c.net.Now() - c.slotFreedAt[node][slot]; gap > 0 {
				bucket.Idle(gap)
			}
			c.slotFreedAt[node][slot] = c.net.Now()
			// d CPU-seconds of work against the credit bucket.
			d = bucket.TimeToTransfer(1, d)
		}
		return d
	}

	// dispatch fills free slots with pending tasks, round-robin over
	// nodes for deterministic balance.
	dispatch := func() {
		for pending > 0 {
			// Pick the node with the most free slots (ties by index),
			// mimicking Spark's spread-out default.
			best := -1
			for i := 0; i < c.cfg.Nodes; i++ {
				if len(freeList[i]) > 0 && (best < 0 || len(freeList[i]) > len(freeList[best])) {
					best = i
				}
			}
			if best < 0 {
				return
			}
			slot := freeList[best][len(freeList[best])-1]
			freeList[best] = freeList[best][:len(freeList[best])-1]
			pending--
			idx := launched
			launched++

			tt := &tasks[idx]
			*tt = TaskTrace{
				Stage: stageIdx, Index: idx, ExecNode: best,
				PeerNode: -1, Start: c.net.Now(),
			}

			if spec.ShuffleGbit > 0 {
				// Shuffle source: spread deterministically over the
				// other nodes so every node serves map output, as in
				// an all-to-all shuffle — except for the hot-partition
				// fraction, which always reads from the hot node.
				peer := (best + 1 + idx%(c.cfg.Nodes-1)) % c.cfg.Nodes
				if spec.HotPeerFrac > 0 && c.src.Bernoulli(spec.HotPeerFrac) {
					peer = 0
					if best == 0 {
						peer = 1
					}
				}
				tt.PeerNode = peer
				node := best
				nodeSlot := slot
				trace := tt
				err := c.net.StartFlow(c.nics[peer], c.nics[best], spec.ShuffleGbit, func(now float64, _ int) {
					trace.ShuffleAt = now
					schedule(now+taskDuration(node, nodeSlot), trace, node, nodeSlot)
				}, 0)
				if err != nil {
					// Flow creation only fails on programmer error: the
					// peer is another node and the size was validated.
					panic(fmt.Sprintf("spark: shuffle flow: %v", err))
				}
			} else {
				tt.ShuffleAt = tt.Start
				schedule(c.net.Now()+taskDuration(best, slot), tt, best, slot)
			}
		}
	}

	for remaining > 0 {
		dispatch()

		// The heap's top is the earliest pending compute completion.
		nextCompute := math.Inf(1)
		if len(computes) > 0 {
			nextCompute = computes[0].at
		}

		// With no flow in flight, RunUntilEvent idles the network to the
		// bound in one jump.
		bound := math.Min(nextCompute, *nextSample)
		flowsOnly := math.IsInf(bound, 1)
		if flowsOnly {
			if c.net.ActiveFlows() == 0 {
				return sr, fmt.Errorf("deadlock: no computes, no flows, %d tasks unfinished", remaining)
			}
			// Only flows in flight: run until one completes.
			bound = c.net.Now() + 1e7
		}
		if !c.net.RunUntilEvent(bound) && flowsOnly {
			return sr, fmt.Errorf("flows stalled beyond horizon")
		}
		now := c.net.Now()

		// Fire due samples.
		if opts.Sampler != nil {
			for *nextSample <= now+1e-12 {
				opts.Sampler(*nextSample, c.nodeRates(), c.NodeTokens())
				*nextSample += opts.SampleInterval
			}
		}

		due = computes.popDue(now+1e-9, due)
		for _, ev := range due {
			ev.task.End = ev.at
			freeList[ev.node] = append(freeList[ev.node], ev.slot)
			if c.slotFreedAt != nil {
				c.slotFreedAt[ev.node][ev.slot] = ev.at
			}
			remaining--
		}
	}

	sr.End = c.net.Now()
	sr.Tasks = tasks
	sr.Straggle = refStraggleRatio(sr.Tasks)
	return sr, nil
}

// refStraggleRatio is slowest task duration / median task duration.
func refStraggleRatio(tasks []TaskTrace) float64 {
	if len(tasks) == 0 {
		return 0
	}
	durations := make([]float64, len(tasks))
	for i, t := range tasks {
		durations[i] = t.End - t.Start
	}
	sort.Float64s(durations)
	med := durations[len(durations)/2]
	if med <= 0 {
		return 0
	}
	return durations[len(durations)-1] / med
}

// twinCase is a cluster and the jobs to run on it, one after another,
// each after a rest. cfg.NewShaper builds fresh shapers for each twin.
type twinCase struct {
	cfg    ClusterConfig
	seed   uint64
	sample float64 // sampler interval; 0 runs no sampler
	jobs   []Job
	rests  []float64
}

// seededTwin builds the case a seed names: 2–16 nodes of 1–8 slots
// whose egress is a fixed rate or a token bucket that starts anywhere
// from empty to full, compute noise, node speed noise and CPU credits
// each on or off, a sampler one case in three, and 2–4 jobs of 1–4
// stages with shuffles, skew and a hot peer, some stages computing for
// no time at all and some tasks computing for exactly the same time, so
// that computes retire together. One job in twelve fails validation.
func seededTwin(seed uint64) twinCase {
	src := simrand.New(seed)
	nodes, slots := 2+src.Intn(15), 1+src.Intn(8)
	bucket, rate := make([]bool, nodes), make([]float64, nodes)
	for i := range bucket {
		bucket[i] = src.Intn(2) == 0
		rate[i] = src.Uniform(1, 10)
		if bucket[i] {
			rate[i] = src.Uniform(0, 300) // the bucket's starting tokens
		}
	}
	tc := twinCase{
		cfg: ClusterConfig{
			Nodes: nodes, SlotsPerNode: slots,
			IngressGbps: src.Uniform(5, 10),
			NewShaper: func(node int) netem.Shaper {
				if !bucket[node] {
					return &netem.FixedShaper{RateGbps: rate[node]}
				}
				sh, err := netem.NewBucketShaper(tokenbucket.Params{BudgetGbit: 300, RefillGbps: 1, HighGbps: 10, LowGbps: 1})
				if err != nil {
					panic(err)
				}
				sh.Bucket.SetTokens(rate[node])
				return sh
			},
		},
		seed: src.Uint64(),
	}
	if src.Intn(2) == 0 {
		tc.cfg.ComputeNoiseFrac = src.Uniform(0, 0.1)
	}
	if src.Intn(3) == 0 {
		tc.cfg.NodeSpeedNoiseFrac = src.Uniform(0, 0.3)
	}
	if src.Intn(2) == 0 {
		tc.cfg.CPUBurst = &CPUBurstParams{BudgetCPUSec: src.Uniform(1, 60), BaselineFrac: src.Uniform(0.1, 1), EarnRate: src.Uniform(0, 0.5)}
	}
	if src.Intn(3) == 0 {
		tc.sample = src.Uniform(0.3, 5)
	}
	for j := 2 + src.Intn(3); j > 0; j-- {
		job := Job{Name: fmt.Sprintf("job%d", len(tc.jobs))}
		for k := 1 + src.Intn(4); k > 0; k-- {
			st := StageSpec{Name: fmt.Sprintf("s%d", len(job.Stages)), Tasks: 1 + src.Intn(48)}
			switch src.Intn(4) {
			case 0: // every compute retires at once
			case 1:
				st.ComputeSec = float64(1 + src.Intn(4))
			default:
				st.ComputeSec = src.Uniform(0, 20)
			}
			if src.Intn(3) != 0 {
				st.ShuffleGbit = src.Uniform(0.1, 30)
			}
			if src.Intn(3) == 0 {
				st.SkewFrac = src.Uniform(0, 0.5)
			}
			if src.Intn(3) == 0 {
				st.HotPeerFrac = src.Uniform(0, 1)
			}
			job.Stages = append(job.Stages, st)
		}
		if src.Intn(12) == 0 {
			job.Stages[src.Intn(len(job.Stages))].Tasks = 0
		}
		rest := 0.0
		if src.Intn(2) == 0 {
			rest = src.Uniform(0, 60)
		}
		tc.jobs, tc.rests = append(tc.jobs, job), append(tc.rests, rest)
	}
	return tc
}

// matchTwins runs tc's jobs on two clusters built alike, one through
// RunJob and one through refRunJob, and fails unless every result is
// bit-equal field for field, every error reads the same, the samplers
// saw the same bits and the clusters end in the same state. check, if
// non-nil, sees the RunJob cluster and error after each job.
func matchTwins(t *testing.T, name string, tc twinCase, check func(job int, c *Cluster, err error)) {
	t.Helper()
	var clusters [2]*Cluster
	var samples [2][]uint64
	var opts [2]RunOptions
	for i := range clusters {
		c, err := NewCluster(tc.cfg, simrand.New(tc.seed))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		clusters[i] = c
		if tc.sample > 0 {
			log := &samples[i]
			opts[i] = RunOptions{SampleInterval: tc.sample, Sampler: func(at float64, rates, tokens []float64) {
				*log = appendBits(append(appendBits(*log, at), math.MaxUint64), rates...)
				*log = appendBits(append(*log, math.MaxUint64), tokens...)
			}}
		}
	}
	for j, job := range tc.jobs {
		clusters[0].Rest(tc.rests[j])
		clusters[1].Rest(tc.rests[j])
		got, err := clusters[0].RunJob(job, opts[0])
		want, wantErr := clusters[1].refRunJob(job, opts[1])
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s job %d: error %v, reference %v", name, j, err, wantErr)
		}
		if check != nil {
			check(j, clusters[0], err)
		}
		if diff := diffResults(got, want); diff != "" {
			t.Fatalf("%s job %d: %s", name, j, diff)
		}
		if !slices.Equal(samples[0], samples[1]) {
			t.Fatalf("%s job %d: sampler saw %d words, reference %d, or other bits", name, j, len(samples[0]), len(samples[1]))
		}
	}
	a, b := clusters[0], clusters[1]
	end := func(c *Cluster) []uint64 {
		bits := appendBits(nil, c.net.Now())
		bits = appendBits(bits, c.NodeTokens()...)
		return appendBits(bits, c.CPUCredits()...)
	}
	if !slices.Equal(end(a), end(b)) {
		t.Fatalf("%s: clusters end at %v, tokens %v, credits %v; reference %v, %v, %v", name,
			a.net.Now(), a.NodeTokens(), a.CPUCredits(), b.net.Now(), b.NodeTokens(), b.CPUCredits())
	}
}

func appendBits(dst []uint64, fs ...float64) []uint64 {
	for _, f := range fs {
		dst = append(dst, math.Float64bits(f))
	}
	return dst
}

// diffResults names the first field in which got and want differ, or
// returns "" when every field holds the same bits. A nil slice and an
// empty one are alike.
func diffResults(got, want JobResult) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if got.Job != want.Job || !same(got.Start, want.Start) || !same(got.End, want.End) {
		return fmt.Sprintf("job %q %v–%v, reference %q %v–%v", got.Job, got.Start, got.End, want.Job, want.Start, want.End)
	}
	if !slices.Equal(appendBits(nil, got.NodeGbit...), appendBits(nil, want.NodeGbit...)) {
		return fmt.Sprintf("NodeGbit %v, reference %v", got.NodeGbit, want.NodeGbit)
	}
	if len(got.Stages) != len(want.Stages) {
		return fmt.Sprintf("%d stages, reference %d", len(got.Stages), len(want.Stages))
	}
	for i, g := range got.Stages {
		w := want.Stages[i]
		if g.Name != w.Name || !same(g.Start, w.Start) || !same(g.End, w.End) || !same(g.Straggle, w.Straggle) || len(g.Tasks) != len(w.Tasks) {
			return fmt.Sprintf("stage %d %q %v–%v straggle %v, %d tasks; reference %q %v–%v straggle %v, %d tasks", i,
				g.Name, g.Start, g.End, g.Straggle, len(g.Tasks), w.Name, w.Start, w.End, w.Straggle, len(w.Tasks))
		}
		for k, gt := range g.Tasks {
			wt := w.Tasks[k]
			if gt.Stage != wt.Stage || gt.Index != wt.Index || gt.ExecNode != wt.ExecNode || gt.PeerNode != wt.PeerNode ||
				!same(gt.Start, wt.Start) || !same(gt.ShuffleAt, wt.ShuffleAt) || !same(gt.End, wt.End) {
				return fmt.Sprintf("stage %d task %d %+v, reference %+v", i, k, gt, wt)
			}
		}
	}
	return ""
}

// wakeShaper passes nothing for its first asleep seconds of virtual
// time and RateGbps after.
type wakeShaper struct{ asleep, RateGbps float64 }

func (w *wakeShaper) Rate(demand float64) float64 {
	if w.asleep > 0 || demand <= 0 {
		return 0
	}
	return math.Min(demand, w.RateGbps)
}

func (w *wakeShaper) Transfer(demand, dt float64) float64 {
	moved := w.Rate(demand) * dt
	w.Idle(dt)
	return moved
}

func (w *wakeShaper) Idle(dt float64) { w.asleep = math.Max(w.asleep-dt, 0) }

func (w *wakeShaper) NextTransition(float64) float64 {
	if w.asleep > 0 {
		return w.asleep
	}
	return math.Inf(1)
}

// TestRunJobMatchesReference holds the engine to the reference on the
// clusters and jobs seeds 1–200 build, and on one whose shuffle stalls.
// There node 0's egress passes nothing until 20 s past the horizon
// that a stage waits on flows alone, so the first job's shuffle stage
// fails with its reads from node 0 in flight. Those reads end 20 s
// into the next job, draw
// their tasks' compute times and retire nowhere; every later job must
// still match the reference.
func TestRunJobMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		matchTwins(t, fmt.Sprintf("seed %d", seed), seededTwin(seed), nil)
	}
	stall := twinCase{
		cfg: ClusterConfig{
			Nodes: 2, SlotsPerNode: 2, IngressGbps: 10, ComputeNoiseFrac: 0.03,
			CPUBurst: &CPUBurstParams{BudgetCPUSec: 12, BaselineFrac: 0.3, EarnRate: 0.3},
			NewShaper: func(node int) netem.Shaper {
				if node == 0 {
					return &wakeShaper{asleep: 1e7 + 20, RateGbps: 10}
				}
				return &netem.FixedShaper{RateGbps: 10}
			},
		},
		seed: 3,
		jobs: []Job{
			{Name: "stalls", Stages: []StageSpec{
				{Name: "scan", Tasks: 4, ComputeSec: 5},
				{Name: "join", Tasks: 4, ShuffleGbit: 5, ComputeSec: 5, HotPeerFrac: 1, SkewFrac: 0.2},
			}},
			{Name: "after", Stages: []StageSpec{
				{Name: "waves", Tasks: 16, ComputeSec: 4},
				{Name: "shuffle", Tasks: 8, ShuffleGbit: 2, ComputeSec: 3},
			}},
			{Name: "again", Stages: []StageSpec{{Name: "shuffle", Tasks: 8, ShuffleGbit: 2, ComputeSec: 3, HotPeerFrac: 0.5}}},
		},
		rests: []float64{0, 0, 5},
	}
	// The case must take the path it names: the first job fails on the
	// horizon with reads in flight, and they end within the second.
	matchTwins(t, "stall", stall, func(job int, c *Cluster, err error) {
		switch {
		case job == 0 && (err == nil || !strings.Contains(err.Error(), "flows stalled beyond horizon")):
			t.Fatalf("stall job: error %v, want the horizon's", err)
		case job == 0 && c.net.ActiveFlows() == 0:
			t.Fatal("stall job left no read in flight")
		case job > 0 && (err != nil || c.net.ActiveFlows() != 0):
			t.Fatalf("job %d after the stall: error %v, %d reads in flight", job, err, c.net.ActiveFlows())
		}
	})
}

// stepCounter counts the network steps that reach a shaper: each step
// transfers through or idles every egress once.
type stepCounter struct {
	netem.Shaper
	steps int
}

func (s *stepCounter) Transfer(demand, dt float64) float64 {
	s.steps++
	return s.Shaper.Transfer(demand, dt)
}

func (s *stepCounter) Idle(dt float64) {
	s.steps++
	s.Shaper.Idle(dt)
}

// TestStallFailsInFewSteps: the stall case's shuffle, behind an egress
// asleep past the flow horizon, fails on the horizon within a few
// network steps, not one per second of the horizon's 10^7.
func TestStallFailsInFewSteps(t *testing.T) {
	asleep := &stepCounter{Shaper: &wakeShaper{asleep: 1e7 + 20, RateGbps: 10}}
	c, err := NewCluster(ClusterConfig{
		Nodes: 2, SlotsPerNode: 2, IngressGbps: 10,
		NewShaper: func(node int) netem.Shaper {
			if node == 0 {
				return asleep
			}
			return &netem.FixedShaper{RateGbps: 10}
		},
	}, simrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.RunJob(Job{Name: "stalls", Stages: []StageSpec{
		{Name: "scan", Tasks: 4, ComputeSec: 5},
		{Name: "join", Tasks: 4, ShuffleGbit: 5, ComputeSec: 5, HotPeerFrac: 1, SkewFrac: 0.2},
	}}, RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "flows stalled beyond horizon") {
		t.Fatalf("error %v, want the horizon's", err)
	}
	if asleep.steps > 100 {
		t.Errorf("the stall took %d network steps, want at most 100", asleep.steps)
	}
}

// FuzzRunJob holds the engine to the reference on the case any seed
// builds (seededTwin); seeds 1–30 come from f.Add.
func FuzzRunJob(f *testing.F) {
	for seed := uint64(1); seed <= 30; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		matchTwins(t, fmt.Sprintf("seed %d", seed), seededTwin(seed), nil)
	})
}
