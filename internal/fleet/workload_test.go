package fleet_test

import (
	"strings"
	"testing"

	"cloudvar/internal/fleet"
	"cloudvar/internal/store"
	"cloudvar/internal/testutil"
	"cloudvar/internal/workload"
)

// workloadSpec attaches a three-client traffic mix — one client per
// arrival family, including a trace replay — to the shared two-cloud
// matrix. testutil.EncodeResult covers the per-cell workload metrics
// and per-group class results, so the determinism diffs below bind
// the traffic engine's full output.
func workloadSpec(t *testing.T, seed uint64, workers int) fleet.CampaignSpec {
	t.Helper()
	spec := testutil.TwoCloudSpec(t, seed, workers)
	spec.Workload = &workload.Spec{
		AggregateRPS: 3,
		RequestKB:    4096,
		Clients: []workload.Client{
			{ID: "web", RateFraction: 0.5, SLOClass: "interactive", Arrival: workload.Arrival{Process: workload.Poisson}},
			{ID: "etl", RateFraction: 0.3, SLOClass: "batch", Arrival: workload.Arrival{Process: workload.Gamma, CV: 2}},
			{ID: "replay", RateFraction: 0.2, Arrival: workload.Arrival{Process: workload.Trace, Times: []float64{1, 2, 44.5, 90}}},
		},
	}
	return spec
}

// TestWorkloadDeterministicAcrossWorkerCounts extends the fleet's
// tentpole guarantee to per-client traffic: with a multi-client
// workload attached, output — request streams, latencies, per-class
// aggregates — is byte-identical at any worker count, and a different
// seed moves the bytes (the property would otherwise pass vacuously).
func TestWorkloadDeterministicAcrossWorkerCounts(t *testing.T) {
	seq, err := fleet.Run(workloadSpec(t, 7, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.Err(); err != nil {
		t.Fatal(err)
	}
	for _, c := range seq.Cells {
		if c.Workload == nil {
			t.Fatalf("cell %s has no workload metrics", c.Cell.Label())
		}
		if c.Workload.Requests() == 0 {
			t.Fatalf("cell %s served no requests", c.Cell.Label())
		}
		if len(c.Workload.Clients) != 3 {
			t.Fatalf("cell %s has %d client series, want 3", c.Cell.Label(), len(c.Workload.Clients))
		}
	}
	ref := testutil.EncodeResult(t, seq)
	for _, workers := range []int{2, 8} {
		par, err := fleet.Run(workloadSpec(t, 7, workers))
		if err != nil {
			t.Fatal(err)
		}
		if got := testutil.EncodeResult(t, par); got != ref {
			t.Fatalf("workers=%d: workload output differs from sequential run", workers)
		}
	}
	other, err := fleet.Run(workloadSpec(t, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if testutil.EncodeResult(t, other) == ref {
		t.Fatal("different seed left the workload output unchanged")
	}
}

// TestWorkloadClassResults checks the per-group rollup: one
// ClassResult per SLO class, sorted, named group/class, with one p99
// sample per repetition and the request counts accounted for.
func TestWorkloadClassResults(t *testing.T) {
	spec := workloadSpec(t, 7, 0)
	res, err := fleet.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	want := spec.Workload.Classes() // [batch interactive standard]
	for _, g := range res.Groups {
		if len(g.Classes) != len(want) {
			t.Fatalf("group %s has %d class results, want %d", g.Result.Name, len(g.Classes), len(want))
		}
		for i, cl := range g.Classes {
			if cl.Class != want[i] {
				t.Errorf("group %s class %d = %q, want %q (sorted)", g.Result.Name, i, cl.Class, want[i])
			}
			prefix := g.Cloud + "/" + g.Instance + "/" + g.Regime + "/"
			if !strings.HasPrefix(cl.Result.Name, prefix) || !strings.HasSuffix(cl.Result.Name, cl.Class) {
				t.Errorf("class result named %q, want %s%s", cl.Result.Name, prefix, cl.Class)
			}
			if cl.Result.Summary.N != spec.Repetitions {
				t.Errorf("class %s has %d samples, want one p99 per repetition (%d)",
					cl.Result.Name, cl.Result.Summary.N, spec.Repetitions)
			}
			if cl.Requests == 0 {
				t.Errorf("class %s reports zero requests", cl.Result.Name)
			}
			if cl.Result.Summary.Min <= 0 {
				t.Errorf("class %s p99 sample %g, want positive latency", cl.Result.Name, cl.Result.Summary.Min)
			}
		}
	}
}

// TestWorkloadResumeByteIdentical extends the store's resume
// guarantee to traffic-carrying campaigns: interrupted halfway and
// resumed, the output — workload metrics included — is byte-identical
// to an uninterrupted run.
func TestWorkloadResumeByteIdentical(t *testing.T) {
	st := testutil.TempStore(t)
	spec := workloadSpec(t, 7, 8)

	full, err := st.CreateWithMeta("full", spec, store.RunMeta{})
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	specFull := spec
	specFull.Sink = full
	ref, err := fleet.Run(specFull)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Err(); err != nil {
		t.Fatal(err)
	}

	interrupted, err := st.CreateWithMeta("half", spec, store.RunMeta{})
	if err != nil {
		t.Fatal(err)
	}
	defer interrupted.Close()
	for _, c := range ref.Cells[:len(ref.Cells)/2] {
		if err := interrupted.Put(c); err != nil {
			t.Fatal(err)
		}
	}
	resumedRun, err := st.Resume("half", spec)
	if err != nil {
		t.Fatal(err)
	}
	defer resumedRun.Close()
	specResume := spec
	specResume.Sink = resumedRun
	res, err := fleet.Run(specResume)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := testutil.EncodeResult(t, res), testutil.EncodeResult(t, ref); got != want {
		t.Error("resumed workload campaign differs from uninterrupted run")
	}

	// A workload-free spec is a different experiment: resuming the
	// stored workload run with it must be rejected by the spec key.
	bare := testutil.TwoCloudSpec(t, 7, 8)
	if _, err := st.Resume("full", bare); err == nil {
		t.Fatal("resume without the workload section should be rejected")
	}
}

// TestWorkloadSourceStability pins the traffic substream derivation:
// (seed, cell, name) fully determines the stream, and distinct client
// names or cells decorrelate.
func TestWorkloadSourceStability(t *testing.T) {
	spec := workloadSpec(t, 7, 0)
	cells := spec.Cells()
	a := fleet.WorkloadSource(spec.Seed, cells[3], "client/web")
	b := fleet.WorkloadSource(spec.Seed, cells[3], "client/web")
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("WorkloadSource not reproducible for equal (seed, cell, name)")
		}
	}
	if fleet.WorkloadSource(7, cells[0], "client/web").Uint64() == fleet.WorkloadSource(7, cells[0], "client/etl").Uint64() {
		t.Fatal("distinct client names should decorrelate streams")
	}
	if fleet.WorkloadSource(7, cells[0], "client/web").Uint64() == fleet.WorkloadSource(7, cells[1], "client/web").Uint64() {
		t.Fatal("distinct cells should decorrelate streams")
	}
	if fleet.WorkloadSource(7, cells[0], "client/web").Uint64() == fleet.CellSource(7, cells[0]).Uint64() {
		t.Fatal("workload streams must not alias the measurement stream")
	}
}
