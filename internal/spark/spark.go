// Package spark simulates a Spark-like big-data execution engine on
// top of the netem network emulator: jobs decompose into stages,
// stages into tasks, tasks occupy executor slots and perform a
// shuffle-read over the emulated network followed by a compute phase.
//
// This is the substitute for the paper's 12-node Spark 2.4.0 + Hadoop
// 2.7.3 cluster (Table 4). The paper's application-level findings —
// budget-dependent runtimes (Figures 15-17), token-bucket stragglers
// (Figure 18), broken experiment independence (Figure 19) — all arise
// from the interaction between shuffle traffic and per-node egress
// shaping, which this simulator models directly: a node whose token
// bucket empties serves its shuffle partitions at the low rate, and
// every task reading from it inherits the slowdown.
package spark

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"cloudvar/internal/netem"
	"cloudvar/internal/simrand"
	"cloudvar/internal/tokenbucket"
)

// StageSpec describes one stage of a job.
type StageSpec struct {
	Name string
	// Tasks is the stage's task count.
	Tasks int
	// ComputeSec is the CPU time per task (before noise).
	ComputeSec float64
	// ShuffleGbit is the volume each task reads over the network from
	// a remote node's map output; 0 for input stages reading local
	// storage.
	ShuffleGbit float64
	// SkewFrac adds per-task lognormal duration skew (sigma); 0 means
	// perfectly uniform tasks.
	SkewFrac float64
	// HotPeerFrac is the fraction of shuffle reads directed at a
	// single "hot" node holding the popular partitions (node 0, or
	// node 1 when the reader is node 0). Skewed shuffles are how the
	// paper's scheduling imbalances turn a shared token-bucket policy
	// into a single-node straggler (Figure 18).
	HotPeerFrac float64
}

// Validate checks the stage description.
func (s StageSpec) Validate() error {
	switch {
	case s.Tasks <= 0:
		return fmt.Errorf("spark: stage %q needs tasks > 0", s.Name)
	case s.ComputeSec < 0:
		return fmt.Errorf("spark: stage %q has negative compute", s.Name)
	case s.ShuffleGbit < 0:
		return fmt.Errorf("spark: stage %q has negative shuffle volume", s.Name)
	case s.SkewFrac < 0:
		return fmt.Errorf("spark: stage %q has negative skew", s.Name)
	case s.HotPeerFrac < 0 || s.HotPeerFrac > 1:
		return fmt.Errorf("spark: stage %q hot-peer fraction outside [0,1]", s.Name)
	}
	return nil
}

// Job is an ordered sequence of stages.
type Job struct {
	Name   string
	Stages []StageSpec
}

// Validate checks the job description.
func (j Job) Validate() error {
	if j.Name == "" {
		return fmt.Errorf("spark: job needs a name")
	}
	if len(j.Stages) == 0 {
		return fmt.Errorf("spark: job %q has no stages", j.Name)
	}
	for _, s := range j.Stages {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// TotalShuffleGbit returns the job's total network volume.
func (j Job) TotalShuffleGbit() float64 {
	total := 0.0
	for _, s := range j.Stages {
		total += float64(s.Tasks) * s.ShuffleGbit
	}
	return total
}

// ClusterConfig describes the simulated cluster.
type ClusterConfig struct {
	// Nodes is the cluster size (Table 4: 12).
	Nodes int
	// SlotsPerNode is the number of concurrent tasks per node.
	SlotsPerNode int
	// NewShaper builds the egress shaper for node i. Called once per
	// node at cluster construction.
	NewShaper func(node int) netem.Shaper
	// IngressGbps is each node's ingress line rate.
	IngressGbps float64
	// ComputeNoiseFrac is the lognormal sigma applied to every task's
	// compute time (CPU-side variability; kept small so network
	// effects dominate, mirroring the paper's isolated testbed).
	ComputeNoiseFrac float64
	// NodeSpeedNoiseFrac, when positive, draws a per-node speed
	// factor (lognormal sigma) at cluster construction. Unlike
	// per-task noise, this does not average out across tasks — it is
	// the "noisy neighbour" run-to-run variability real clouds show
	// (Figure 13's CONFIRM analyses depend on it). Leave zero for
	// isolated-testbed experiments (Figures 15-19).
	NodeSpeedNoiseFrac float64
	// CPUBurst, when non-nil, gives every executor slot (vCPU) a
	// burstable-instance credit bucket — the paper's Section 4.2
	// observation that "cloud providers use token buckets for other
	// resources such as CPU scheduling", which makes even
	// compute-bound workloads history-dependent.
	CPUBurst *CPUBurstParams
}

// CPUBurstParams models t2/t3-style CPU credits per vCPU: tasks run
// at full speed while credits remain and at BaselineFrac speed once
// depleted; credits accrue at EarnRate CPU-seconds per wall second up
// to the budget cap.
type CPUBurstParams struct {
	// BudgetCPUSec is the credit cap (and initial balance).
	BudgetCPUSec float64
	// BaselineFrac is the throttled speed fraction (t3.large: ~0.3).
	BaselineFrac float64
	// EarnRate is the accrual rate in CPU-seconds per second;
	// providers set it equal to the baseline fraction.
	EarnRate float64
}

// Validate checks the burst parameters.
func (p CPUBurstParams) Validate() error {
	switch {
	case p.BudgetCPUSec <= 0:
		return fmt.Errorf("spark: CPU burst budget must be positive")
	case p.BaselineFrac <= 0 || p.BaselineFrac > 1:
		return fmt.Errorf("spark: CPU baseline fraction outside (0,1]")
	case p.EarnRate < 0:
		return fmt.Errorf("spark: negative CPU earn rate")
	}
	return nil
}

// bucketParams converts to a token bucket in CPU-seconds: high rate 1
// (full speed), low rate = baseline.
func (p CPUBurstParams) bucketParams() tokenbucket.Params {
	return tokenbucket.Params{
		BudgetGbit: p.BudgetCPUSec,
		RefillGbps: p.EarnRate,
		HighGbps:   1,
		LowGbps:    p.BaselineFrac,
	}
}

// Validate checks the configuration.
func (c ClusterConfig) Validate() error {
	switch {
	case c.Nodes < 2:
		return fmt.Errorf("spark: need at least 2 nodes, got %d", c.Nodes)
	case c.SlotsPerNode <= 0:
		return fmt.Errorf("spark: need positive slots per node")
	case c.NewShaper == nil:
		return fmt.Errorf("spark: need a shaper factory")
	case c.IngressGbps <= 0:
		return fmt.Errorf("spark: need positive ingress rate")
	case c.ComputeNoiseFrac < 0:
		return fmt.Errorf("spark: negative compute noise")
	case c.NodeSpeedNoiseFrac < 0:
		return fmt.Errorf("spark: negative node speed noise")
	}
	if c.CPUBurst != nil {
		if err := c.CPUBurst.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Cluster is a live simulated cluster. Create a fresh Cluster per
// experiment repetition to model "fresh VMs"; reuse one across
// repetitions to model the paper's Figure 19 carry-over state. A
// Cluster runs one job at a time: its stages share one working memory,
// so it is not safe for concurrent use.
type Cluster struct {
	cfg       ClusterConfig
	net       *netem.Network
	nics      []*netem.NIC // one per node
	src       *simrand.Source
	nodeSpeed []float64 // per-node compute-time multipliers
	// cpuBuckets[node][slot] holds per-vCPU credit buckets when
	// CPUBurst is configured; slotFreedAt tracks when each slot last
	// went idle so credits accrue across gaps.
	cpuBuckets  [][]*tokenbucket.Bucket
	slotFreedAt [][]float64
	// stage is the working memory of the running stage.
	stage stageScratch
}

// stageScratch is the working memory that every stage on a cluster
// reuses, so a stage allocates its task traces, which are its result,
// and its two closures, and nothing per task. runStage resets it at
// stage start, so a stage that returned an error leaves nothing behind
// in it. A task holds its slot until its compute retires, so no stage
// has more than Nodes × SlotsPerNode computes pending, and the compute
// heap and the due list are sized to that once.
type stageScratch struct {
	// gen counts the stages run, so a shuffle read that a failed stage
	// left in flight can tell when it completes during a later stage.
	gen       int
	computes  computeHeap
	scheduled int // computes pushed this stage: the next one's seq
	due       []computeEvent
	// free[node] holds the node's free slot indices (slot identity
	// matters when per-vCPU CPU-credit buckets are active), a window
	// of one backing array with room for all of the node's slots.
	free [][]int
	// reader[node*SlotsPerNode+slot] is the task whose shuffle read
	// holds the slot.
	reader    []int
	durations []float64 // straggleRatio's buffer
}

func newStageScratch(nodes, slots int) stageScratch {
	s := stageScratch{
		computes: make(computeHeap, 0, nodes*slots),
		due:      make([]computeEvent, 0, nodes*slots),
		free:     make([][]int, nodes),
		reader:   make([]int, nodes*slots),
	}
	backing := make([]int, nodes*slots)
	for i := range s.free {
		s.free[i] = backing[i*slots : (i+1)*slots : (i+1)*slots]
	}
	return s
}

// reset readies the scratch for a new stage: no compute pending and
// every node's slots free, listed 0…S−1 so that dispatch hands out the
// highest first.
func (s *stageScratch) reset() {
	s.gen++
	s.computes = s.computes[:0]
	s.scheduled = 0
	for i, free := range s.free {
		free = free[:cap(free)]
		for slot := range free {
			free[slot] = slot
		}
		s.free[i] = free
	}
}

// schedule pushes a task's compute completion at at.
func (s *stageScratch) schedule(at float64, task *TaskTrace, node, slot int) {
	s.computes.push(computeEvent{at: at, seq: s.scheduled, task: task, node: node, slot: slot})
	s.scheduled++
}

// NewCluster builds the cluster and its emulated network.
func NewCluster(cfg ClusterConfig, src *simrand.Source) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("spark: nil random source")
	}
	c := &Cluster{cfg: cfg, net: netem.NewNetwork(), src: src, stage: newStageScratch(cfg.Nodes, cfg.SlotsPerNode)}
	c.nodeSpeed = make([]float64, cfg.Nodes)
	for i := range c.nodeSpeed {
		c.nodeSpeed[i] = 1
		if cfg.NodeSpeedNoiseFrac > 0 {
			c.nodeSpeed[i] = src.LogNormal(0, cfg.NodeSpeedNoiseFrac)
		}
	}
	c.nics = make([]*netem.NIC, cfg.Nodes)
	for i := range c.nics {
		nic, err := c.net.AddNIC(cfg.NewShaper(i), cfg.IngressGbps)
		if err != nil {
			return nil, fmt.Errorf("spark: node %d: %w", i, err)
		}
		c.nics[i] = nic
	}
	if cfg.CPUBurst != nil {
		bp := cfg.CPUBurst.bucketParams()
		c.cpuBuckets = make([][]*tokenbucket.Bucket, cfg.Nodes)
		c.slotFreedAt = make([][]float64, cfg.Nodes)
		for i := range c.cpuBuckets {
			c.cpuBuckets[i] = make([]*tokenbucket.Bucket, cfg.SlotsPerNode)
			c.slotFreedAt[i] = make([]float64, cfg.SlotsPerNode)
			for sIdx := range c.cpuBuckets[i] {
				bucket, err := tokenbucket.New(bp)
				if err != nil {
					return nil, fmt.Errorf("spark: CPU bucket: %w", err)
				}
				c.cpuBuckets[i][sIdx] = bucket
			}
		}
	}
	return c, nil
}

// CPUCredits returns the summed remaining CPU credits per node, or
// nil when CPU bursting is not configured.
func (c *Cluster) CPUCredits() []float64 {
	if c.cpuBuckets == nil {
		return nil
	}
	out := make([]float64, c.cfg.Nodes)
	for i, slots := range c.cpuBuckets {
		for _, b := range slots {
			out[i] += b.Tokens()
		}
	}
	return out
}

// Nodes returns the cluster size.
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// NodeTokens returns each node's remaining token budget, or NaN for
// nodes whose shaper has no bucket. This is Figure 15/18's right-hand
// axis.
func (c *Cluster) NodeTokens() []float64 {
	out := make([]float64, c.cfg.Nodes)
	for i, nic := range c.nics {
		if bs, ok := nic.Egress.(*netem.BucketShaper); ok {
			out[i] = bs.Bucket.Tokens()
		} else {
			out[i] = math.NaN()
		}
	}
	return out
}

// Rest idles the whole cluster for dt seconds, refilling token
// buckets — the paper's F5.4 "rest the infrastructure" protocol.
func (c *Cluster) Rest(dt float64) {
	if dt < 0 {
		panic("spark: negative rest")
	}
	c.net.RunUntil(c.net.Now() + dt)
}

// TaskTrace records one task's lifecycle.
type TaskTrace struct {
	Stage     int
	Index     int
	ExecNode  int
	PeerNode  int // shuffle source; -1 for input stages
	Start     float64
	ShuffleAt float64 // when the shuffle read finished (== Start if none)
	End       float64
}

// StageResult summarises one executed stage.
type StageResult struct {
	Name     string
	Start    float64
	End      float64
	Tasks    []TaskTrace
	Straggle float64 // slowest/median task duration ratio
}

// JobResult is the outcome of one job execution.
type JobResult struct {
	Job      string
	Start    float64
	End      float64
	Stages   []StageResult
	NodeGbit []float64 // per-node egress volume during this job
}

// Runtime returns the job's wall-clock duration.
func (r JobResult) Runtime() float64 { return r.End - r.Start }

// MaxStraggle returns the worst per-stage straggler ratio.
func (r JobResult) MaxStraggle() float64 {
	worst := 0.0
	for _, s := range r.Stages {
		if s.Straggle > worst {
			worst = s.Straggle
		}
	}
	return worst
}

// Sampler, when set on RunOptions, is invoked at fixed virtual-time
// intervals during job execution with the per-node egress rates and
// token budgets — the instrumentation behind Figures 15 and 18.
type Sampler func(t float64, nodeRatesGbps, nodeTokensGbit []float64)

// RunOptions tunes one job execution.
type RunOptions struct {
	// SampleInterval, if positive, invokes Sampler every interval.
	SampleInterval float64
	Sampler        Sampler
}

// RunJob executes the job to completion and returns its result. Jobs
// run one at a time per cluster (the paper benchmarks applications in
// isolation).
func (c *Cluster) RunJob(job Job, opts RunOptions) (JobResult, error) {
	if err := job.Validate(); err != nil {
		return JobResult{}, err
	}
	if opts.Sampler != nil && opts.SampleInterval <= 0 {
		return JobResult{}, fmt.Errorf("spark: sampler requires positive interval")
	}

	res := JobResult{Job: job.Name, Start: c.net.Now(), Stages: make([]StageResult, 0, len(job.Stages))}
	// moved holds each node's egress counter at the start until the job
	// ends, and then becomes the job's NodeGbit.
	moved := make([]float64, c.cfg.Nodes)
	for i, nic := range c.nics {
		moved[i] = nic.MovedGbit()
	}

	nextSample := math.Inf(1)
	if opts.Sampler != nil {
		nextSample = c.net.Now() + opts.SampleInterval
	}

	for si, spec := range job.Stages {
		sr, err := c.runStage(si, spec, &nextSample, opts)
		if err != nil {
			return res, fmt.Errorf("spark: job %q stage %q: %w", job.Name, spec.Name, err)
		}
		res.Stages = append(res.Stages, sr)
	}

	res.End = c.net.Now()
	for i, nic := range c.nics {
		moved[i] = nic.MovedGbit() - moved[i]
	}
	res.NodeGbit = moved
	return res, nil
}

// computeEvent is a pending task-compute completion; seq is its place
// in the stage's schedule order.
type computeEvent struct {
	at   float64
	seq  int
	task *TaskTrace
	node int
	slot int
}

// computeHeap is a stage's pending computes, a binary min-heap keyed by
// completion time, so its top is the next completion.
type computeHeap []computeEvent

func (h computeHeap) less(i, j int) bool { return h[i].at < h[j].at }

func (h *computeHeap) push(ev computeEvent) {
	*h = append(*h, ev)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *computeHeap) pop() computeEvent {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		m := 2*i + 1
		if m >= len(s) {
			break
		}
		if r := m + 1; r < len(s) && s.less(r, m) {
			m = r
		}
		if !s.less(m, i) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}

// popDue pops every compute due by limit into dst[:0] and returns it in
// schedule order: the order in which the computes retire, which decides
// the slots dispatch reuses.
func (h *computeHeap) popDue(limit float64, dst []computeEvent) []computeEvent {
	dst = dst[:0]
	for len(*h) > 0 && (*h)[0].at <= limit {
		dst = append(dst, h.pop())
	}
	slices.SortFunc(dst, func(a, b computeEvent) int { return cmp.Compare(a.seq, b.seq) })
	return dst
}

func (c *Cluster) runStage(stageIdx int, spec StageSpec, nextSample *float64, opts RunOptions) (StageResult, error) {
	sr := StageResult{Name: spec.Name, Start: c.net.Now()}

	st := &c.stage
	st.reset()
	gen := st.gen
	slots := c.cfg.SlotsPerNode
	pending := spec.Tasks
	launched := 0
	remaining := spec.Tasks
	tasks := make([]TaskTrace, spec.Tasks)

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

	// shuffleDone ends every shuffle read of the stage. A read's tag is
	// the slot its task holds, node*SlotsPerNode + slot. A read that
	// this stage left in flight when it failed may end during a later
	// stage: it still draws its task's compute time, as it did when
	// each read had a closure of its own, but it retires nowhere.
	shuffleDone := func(now float64, tag int) {
		node, slot := tag/slots, tag%slots
		if gen != st.gen {
			taskDuration(node, slot)
			return
		}
		tt := &tasks[st.reader[tag]]
		tt.ShuffleAt = now
		st.schedule(now+taskDuration(node, slot), tt, node, slot)
	}

	// dispatch fills free slots with pending tasks, round-robin over
	// nodes for deterministic balance.
	dispatch := func() {
		free := st.free
		for pending > 0 {
			// Pick the node with the most free slots (ties by index),
			// mimicking Spark's spread-out default.
			best := -1
			for i := 0; i < c.cfg.Nodes; i++ {
				if len(free[i]) > 0 && (best < 0 || len(free[i]) > len(free[best])) {
					best = i
				}
			}
			if best < 0 {
				return
			}
			slot := free[best][len(free[best])-1]
			free[best] = free[best][:len(free[best])-1]
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
				tag := best*slots + slot
				st.reader[tag] = idx
				if err := c.net.StartFlow(c.nics[peer], c.nics[best], spec.ShuffleGbit, shuffleDone, tag); err != nil {
					// Flow creation only fails on programmer error: the
					// peer is another node and the size was validated.
					panic(fmt.Sprintf("spark: shuffle flow: %v", err))
				}
			} else {
				tt.ShuffleAt = tt.Start
				st.schedule(c.net.Now()+taskDuration(best, slot), tt, best, slot)
			}
		}
	}

	for remaining > 0 {
		dispatch()

		// The heap's top is the earliest pending compute completion.
		nextCompute := math.Inf(1)
		if len(st.computes) > 0 {
			nextCompute = st.computes[0].at
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

		st.due = st.computes.popDue(now+1e-9, st.due)
		for _, ev := range st.due {
			ev.task.End = ev.at
			st.free[ev.node] = append(st.free[ev.node], ev.slot)
			if c.slotFreedAt != nil {
				c.slotFreedAt[ev.node][ev.slot] = ev.at
			}
			remaining--
		}
	}

	sr.End = c.net.Now()
	sr.Tasks = tasks
	sr.Straggle = st.straggleRatio(sr.Tasks)
	return sr, nil
}

func (c *Cluster) nodeRates() []float64 {
	out := make([]float64, c.cfg.Nodes)
	for i, nic := range c.nics {
		out[i] = nic.CurrentRateGbps()
	}
	return out
}

// straggleRatio is slowest task duration / median task duration.
func (s *stageScratch) straggleRatio(tasks []TaskTrace) float64 {
	if len(tasks) == 0 {
		return 0
	}
	durations := slices.Grow(s.durations[:0], len(tasks))[:len(tasks)]
	s.durations = durations
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
