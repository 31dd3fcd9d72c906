package main

// Campaign workloads run the way campaignd executes a submitted run:
// decode and compile the spec document, fingerprint the profiles,
// shard.Run across two workers, store.MergeShards and RecordPrecision
// into the coordinator store, then a longitudinal drift report against
// a baseline run of the same matrix under another seed.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"cloudvar/internal/cloudmodel"
	"cloudvar/internal/core"
	"cloudvar/internal/expspec"
	"cloudvar/internal/fleet"
	"cloudvar/internal/longitudinal"
	"cloudvar/internal/shard"
	"cloudvar/internal/simrand"
	"cloudvar/internal/sketch"
	"cloudvar/internal/store"
	"cloudvar/internal/trace"
)

const (
	baselineRunID = "baseline"
	// createdUnix is the creation time stamped into every manifest, fixed
	// so stores are reproducible byte for byte.
	createdUnix = 1700000000
)

type campaignBench struct {
	shape    campaignShape
	seed     uint64
	doc      []byte
	dir      string // scratch directory
	coordDir string // the coordinator's merged-results store
	// expected is the campaign's cell count, the units an iteration
	// attempts.
	expected int
}

func newCampaignBench(shape campaignShape, seed uint64, dir string) (*campaignBench, error) {
	doc, err := shape.doc(seed)
	if err != nil {
		return nil, err
	}
	plan, err := compileCampaign(doc)
	if err != nil {
		return nil, err
	}
	spec := plan.Campaign.Spec
	expected := len(spec.Cells())
	if !spec.Stopping.IsZero() {
		expected = spec.EffectiveBudget() * len(spec.Profiles) * len(spec.EffectiveRegimes())
	}
	return &campaignBench{shape: shape, seed: seed, doc: doc, dir: dir, coordDir: filepath.Join(dir, "coord"), expected: expected}, nil
}

func compileCampaign(doc []byte) (expspec.Plan, error) {
	d, err := expspec.Decode(doc)
	if err != nil {
		return expspec.Plan{}, err
	}
	plan, err := expspec.Compile(d)
	if err != nil {
		return expspec.Plan{}, err
	}
	if plan.Campaign == nil || plan.Store == nil {
		return expspec.Plan{}, fmt.Errorf("perfbench: spec has no campaign or store section")
	}
	return plan, nil
}

func runMeta(plan expspec.Plan, prints map[string]core.Fingerprint) store.RunMeta {
	return store.RunMeta{
		Fingerprints:       prints,
		CreatedUnix:        createdUnix,
		ExperimentSpec:     plan.Bytes,
		ExperimentSpecHash: plan.Hash,
		Encoding:           plan.Store.Encoding,
	}
}

// prepare stores the drift baseline, untimed: the same matrix under
// baselineSeed, run in-process.
func (b *campaignBench) prepare() error {
	doc, err := b.shape.doc(baselineSeed(b.seed))
	if err != nil {
		return err
	}
	plan, err := compileCampaign(doc)
	if err != nil {
		return err
	}
	spec := plan.Campaign.Spec
	spec.Workers = 2
	prints, err := fleet.FingerprintProfiles(spec, core.FingerprintConfig{})
	if err != nil {
		return err
	}
	st, err := store.Open(b.coordDir)
	if err != nil {
		return err
	}
	run, err := st.CreateWithMeta(baselineRunID, spec, runMeta(plan, prints))
	if err != nil {
		return err
	}
	spec.Sink = run
	res, err := fleet.Run(spec)
	if err == nil {
		err = res.Err()
	}
	if err == nil {
		err = run.RecordPrecision(res.Groups)
	}
	if cerr := run.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("perfbench: drift baseline: %w", err)
	}
	return nil
}

// campaignEnv is what set-up builds: the compiled plan, the coordinator
// store and, for HTTP workloads, the running worker servers and their
// clients.
type campaignEnv struct {
	plan    expspec.Plan
	prints  map[string]core.Fingerprint
	st      *store.Store
	workers []*tracedWorker
	fleet   []shard.Worker // workers as shard.Run sees them
	servers []*httptest.Server
	wsrv    []*shard.WorkerServer
	clients []*http.Transport
}

func (e *campaignEnv) close() {
	for _, c := range e.clients {
		c.CloseIdleConnections()
	}
	for _, s := range e.servers {
		s.Close()
	}
	for _, w := range e.wsrv {
		w.Close()
	}
}

// setup is the timed set-up: decode and compile, fingerprint, open the
// coordinator store and, for HTTP workloads, start the worker servers.
func (b *campaignBench) setup(t tracer, iterDir string, peak *heapPeak, retries *atomic.Int64, wire *wireStats) (*campaignEnv, error) {
	env := &campaignEnv{}
	var err error
	id := t.begin("expspec.compile")
	env.plan, err = compileCampaign(b.doc)
	t.end(id)
	if err != nil {
		return env, err
	}
	id = t.begin("fleet.fingerprint")
	env.prints, err = fleet.FingerprintProfiles(env.plan.Campaign.Spec, core.FingerprintConfig{})
	t.end(id)
	if err != nil {
		return env, err
	}
	id = t.begin("store.open")
	env.st, err = store.Open(b.coordDir)
	t.end(id)
	if err != nil {
		return env, err
	}
	id = t.begin("shard.server_start")
	defer t.end(id)
	for k := 0; k < b.shape.shards; k++ {
		w := &tracedWorker{peak: peak, retries: retries}
		env.workers = append(env.workers, w)
		if !b.shape.workerURL {
			w.inner = &shard.InProcWorker{Dir: filepath.Join(iterDir, "shard"+strconv.Itoa(k))}
			env.fleet = append(env.fleet, w)
			continue
		}
		ws := shard.NewWorkerServer(filepath.Join(iterDir, "worker"+strconv.Itoa(k)))
		srv := httptest.NewServer(ws.Handler())
		env.wsrv = append(env.wsrv, ws)
		env.servers = append(env.servers, srv)
		// One connection per worker: at most two loopback connections.
		transport := &http.Transport{MaxConnsPerHost: 1}
		env.clients = append(env.clients, transport)
		var rt http.RoundTripper = transport
		if t.rec != nil {
			rt = &wireTransport{base: transport, w: w, stats: wire}
		}
		hw := &shard.HTTPWorker{URL: srv.URL, AttemptTimeout: 2 * time.Minute, Client: &http.Client{Transport: rt}}
		w.inner = hw
		env.fleet = append(env.fleet, tracedHTTPWorker{tracedWorker: w, http: hw})
	}
	return env, nil
}

func (b *campaignBench) setupOnly() (time.Duration, error) {
	dir := filepath.Join(b.dir, "setup")
	defer os.RemoveAll(dir)
	c0 := cpuTime()
	env, err := b.setup(tracer{}, dir, &heapPeak{}, new(atomic.Int64), &wireStats{})
	d := cpuTime() - c0
	env.close()
	return d, err
}

// iterate runs one set-up and one measured campaign.
func (b *campaignBench) iterate(i int, rec *recorder) (out outcome) {
	t := tracer{rec: rec, run: i}
	iterDir := filepath.Join(b.dir, "iter"+strconv.Itoa(i))
	defer os.RemoveAll(iterDir)
	out.units = b.expected
	fail := func(err error) outcome {
		out.err = err
		out.failed = out.units
		return out
	}

	peak := &heapPeak{}
	var retries atomic.Int64
	wire := &wireStats{}

	setup0 := cpuTime()
	setupID := t.begin("setup")
	env, err := b.setup(t.child(setupID), iterDir, peak, &retries, wire)
	t.end(setupID)
	out.setup = cpuTime() - setup0
	defer env.close()
	if err != nil {
		return fail(err)
	}

	plan := env.plan
	spec := plan.Campaign.Spec
	spec.Progress = func(fleet.Progress) { peak.sample() }
	runID := plan.Store.RunID
	defer os.RemoveAll(filepath.Join(b.coordDir, "runs", runID))

	allocs0, cpu0 := heapAllocs(), cpuTime()
	wallStart := time.Now()
	wallID := t.begin("wall")
	tw := t.child(wallID)
	var report bytes.Buffer
	var mergeAlloc uint64
	err = func() error {
		id := tw.begin("shard.run")
		for _, w := range env.workers {
			w.t = tw.child(id)
		}
		fallback := &tracedWorker{inner: &shard.InProcWorker{}, t: tw.child(id), peak: peak, retries: &retries}
		res, shards, err := shard.Run(shard.Campaign{
			Spec:     spec,
			SpecDoc:  plan.Bytes,
			RunID:    runID,
			Meta:     runMeta(plan, env.prints),
			Workers:  env.fleet,
			Fallback: fallback,
		})
		tw.end(id)
		if err != nil {
			return err
		}
		out.units = len(res.Cells)
		out.failed = len(res.Failed())
		out.emuSec = float64(len(res.StoredLabels())) * spec.Config.DurationSec

		id = tw.begin("store.merge")
		a0 := heapAllocs()
		merged, err := store.MergeShards(env.st, runID, shards, res.StoredLabels())
		mergeAlloc = heapAllocs() - a0
		tw.end(id)
		if err != nil {
			return err
		}
		id = tw.begin("store.record_precision")
		err = merged.RecordPrecision(res.Groups)
		if cerr := merged.Close(); err == nil {
			err = cerr
		}
		tw.end(id)
		if err != nil {
			return err
		}

		id = tw.begin("longitudinal.load")
		runs, err := longitudinal.Load(env.st, baselineRunID, runID)
		tw.end(id)
		if err != nil {
			return err
		}
		id = tw.begin("longitudinal.analyze")
		rep, err := longitudinal.Analyze(runs, longitudinal.Options{})
		tw.end(id)
		if err != nil {
			return err
		}
		id = tw.begin("longitudinal.render")
		err = rep.WriteMarkdown(&report)
		tw.end(id)
		return err
	}()
	t.end(wallID)
	out.wall = time.Since(wallStart)
	out.cpu = cpuTime() - cpu0
	out.allocBytes = heapAllocs() - allocs0
	out.peakHeap = peak.value()
	if err != nil {
		return fail(err)
	}

	cells, err := env.st.Cells(runID)
	if err != nil {
		return fail(err)
	}
	out.digest = campaignDigest(cells, report.Bytes())
	out.storeBytes, err = dirBytes(filepath.Join(b.coordDir, "runs", runID))
	if err != nil {
		return fail(err)
	}
	if rec == nil {
		return out
	}

	tree := newSpanTree(rec.snapshot(), i)
	execs := tree.named("shard.execute")
	out.layers = map[string]float64{
		"expspec.compile_ms":        tree.totalMS("expspec.compile"),
		"fleet.fingerprint_ms":      tree.totalMS("fleet.fingerprint"),
		"store.open_ms":             tree.totalMS("store.open"),
		"shard.server_start_ms":     tree.totalMS("shard.server_start"),
		"shard.begin_ms":            tree.totalMS("shard.begin"),
		"shard.execute_calls":       float64(len(execs)),
		"shard.execute_busy_ms":     tree.totalMS("shard.execute"),
		"shard.barrier_wait_ms":     ms(barrierWait(execs)),
		"shard.coord_self_ms":       tree.selfMS("shard.run"),
		"shard.collect_ms":          tree.totalMS("shard.collect"),
		"shard.retries":             float64(retries.Load()),
		"wire.requests":             float64(wire.requests),
		"wire.bytes_out":            float64(wire.bytesOut),
		"wire.bytes_in":             float64(wire.bytesIn),
		"wire.rtt_p50_ms":           quantile(wire.rttMS, 0.5),
		"wire.rtt_p90_ms":           quantile(wire.rttMS, 0.9),
		"store.merge_ms":            tree.totalMS("store.merge"),
		"store.merge_alloc_mb":      mb(mergeAlloc),
		"store.record_precision_ms": tree.totalMS("store.record_precision"),
		"longitudinal.load_ms":      tree.totalMS("longitudinal.load"),
		"longitudinal.analyze_ms":   tree.totalMS("longitudinal.analyze"),
		"longitudinal.render_ms":    tree.totalMS("longitudinal.render"),
		"store.bytes":               float64(out.storeBytes),
		"store.bytes_per_cell":      float64(out.storeBytes) / float64(max(len(cells), 1)),
		"trace.uncovered_ms":        tree.selfMS("wall"),
	}
	out.cells = cells
	return out
}

// campaignDigest hashes the merged run's cell records in label order,
// then the drift report bytes.
func campaignDigest(cells []store.CellRecord, report []byte) string {
	sorted := append([]store.CellRecord(nil), cells...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Label < sorted[j].Label })
	h := sha256.New()
	for _, c := range sorted {
		b, err := json.Marshal(c)
		if err != nil {
			// A stored record always re-encodes; hash the failure so the
			// digest cannot match.
			b = []byte(err.Error())
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	h.Write(report)
	return hex.EncodeToString(h.Sum(nil))
}

// dirBytes is the on-disk size of every regular file under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// replay re-executes every merged cell of a traced iteration
// sequentially through the public functions fleet's cell runner calls,
// timing each layer a shard.Worker span cannot split: the campaign
// simulation, the request serving, the summary and the store append.
// In sketch mode the cell runner streams every bin into the sketch as
// the simulation produces it, so the replay does the same: that cost
// is part of cloudmodel.cell_ms, and fleet.summarize_ms is only the
// final Summary call. In exact mode fleet.summarize_ms times
// fleet.SummarizeStored over the finished series. One goroutine makes
// every allocation delta attributable. Each replayed record must be
// byte-equal to the merged one.
func (b *campaignBench) replay(o outcome) (map[string]float64, error) {
	plan, err := compileCampaign(b.doc)
	if err != nil {
		return nil, err
	}
	spec := plan.Campaign.Spec
	st, err := store.Open(filepath.Join(b.dir, "replay"))
	if err != nil {
		return nil, err
	}
	run, err := st.CreateWithMeta("replay", spec, runMeta(plan, nil))
	if err != nil {
		return nil, err
	}
	defer run.Close()

	var cellMS, putMS []float64
	var bins, requests, mismatches int
	var cellAlloc, serveAlloc uint64
	var serve, summarize time.Duration
	var scratch cloudmodel.CampaignScratch
	var stream sketch.Stream
	var observe func(trace.Point)
	sketchMode := spec.Summarize == fleet.SummarizeSketch
	if sketchMode {
		observe = func(pt trace.Point) { stream.Add(pt.BandwidthGbps) }
	}
	for _, rec := range o.cells {
		cell, err := spec.CellForLabel(rec.Label)
		if err != nil {
			return nil, err
		}
		stream.Reset()
		a0, t0 := heapAllocs(), time.Now()
		series, err := cloudmodel.RunCampaignObserved(cell.Profile, cell.Regime, spec.Config, fleet.CellSource(spec.Seed, cell), &scratch, observe)
		cellMS = append(cellMS, ms(time.Since(t0)))
		cellAlloc += heapAllocs() - a0
		if err != nil {
			return nil, err
		}
		series.Label = cell.Label()
		bins += len(series.Points)

		res := fleet.CellResult{Cell: cell, Series: series}
		if spec.Workload != nil {
			a0, t0 = heapAllocs(), time.Now()
			res.Workload, err = cloudmodel.RunWorkload(*spec.Workload, series, cell.Profile, spec.Config, func(name string) *simrand.Source {
				return fleet.WorkloadSource(spec.Seed, cell, name)
			})
			serve += time.Since(t0)
			serveAlloc += heapAllocs() - a0
			if err != nil {
				return nil, err
			}
			requests += res.Workload.Requests()
		}

		t0 = time.Now()
		if sketchMode {
			res.Summary = stream.Summary()
		} else {
			res.Summary = fleet.SummarizeStored(spec.Summarize, series)
		}
		summarize += time.Since(t0)

		t0 = time.Now()
		err = run.Put(res)
		putMS = append(putMS, ms(time.Since(t0)))
		if err != nil {
			return nil, err
		}

		got, err := store.NewCellRecord(res)
		if err != nil {
			return nil, err
		}
		if !sameRecord(got, rec) {
			mismatches++
		}
	}
	layers := map[string]float64{
		"cloudmodel.cell_ms_p50": quantile(cellMS, 0.5),
		"cloudmodel.cell_ms_p90": quantile(cellMS, 0.9),
		"cloudmodel.bins":        float64(bins),
		"cloudmodel.alloc_mb":    mb(cellAlloc),
		"workload.serve_ms":      ms(serve),
		"workload.requests":      float64(requests),
		"workload.alloc_mb":      mb(serveAlloc),
		"fleet.summarize_ms":     ms(summarize),
		"store.put_ms_p50":       quantile(putMS, 0.5),
		"store.put_ms_p90":       quantile(putMS, 0.9),
	}
	if mismatches > 0 {
		return layers, fmt.Errorf("perfbench: %d replayed cells differ from the merged run", mismatches)
	}
	return layers, nil
}

func sameRecord(a, b store.CellRecord) bool {
	ab, aerr := json.Marshal(a)
	bb, berr := json.Marshal(b)
	return aerr == nil && berr == nil && bytes.Equal(ab, bb)
}
