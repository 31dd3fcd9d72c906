package shard_test

import (
	"sync"
	"testing"

	"cloudvar/internal/fleet"
	"cloudvar/internal/shard"
	"cloudvar/internal/store"
	"cloudvar/internal/testutil"
)

// TestOwnerIsPureAndStable pins the assignment function: same inputs
// → same shard, always in range, and sensitive to every argument.
func TestOwnerIsPureAndStable(t *testing.T) {
	const key = "a0b1c2"
	labels := []string{
		"ec2/c5.xlarge/full-speed/rep0",
		"ec2/c5.xlarge/full-speed/rep1",
		"gcp/n1-standard-4/token-bucket/rep0",
	}
	for _, label := range labels {
		for _, n := range []int{1, 2, 3, 8, 64} {
			s := shard.Owner(key, label, n)
			if s < 0 || s >= n {
				t.Fatalf("Owner(%q, %d) = %d out of range", label, n, s)
			}
			if again := shard.Owner(key, label, n); again != s {
				t.Fatalf("Owner(%q, %d) not deterministic: %d then %d", label, n, s, again)
			}
		}
		if shard.Owner(key, label, 1) != 0 {
			t.Fatalf("Owner with one shard must be 0")
		}
	}
	// Different spec keys must be able to produce different partitions
	// — liveness-independent, but campaign-dependent.
	varies := false
	for _, label := range labels {
		if shard.Owner(key, label, 64) != shard.Owner("other-key", label, 64) {
			varies = true
		}
	}
	if !varies {
		t.Error("Owner ignores the spec key")
	}
}

// recordingWorker wraps a storeless in-process worker and records the
// labels of every Execute call, in the order the coordinator sent them,
// and how often its store was asked for.
type recordingWorker struct {
	inner shard.InProcWorker

	mu     sync.Mutex
	calls  [][]string
	shards int
}

func (w *recordingWorker) Begin(rc shard.RunContext, index, count int) error {
	return w.inner.Begin(rc, index, count)
}

func (w *recordingWorker) Execute(cells []fleet.Cell) ([]fleet.CellResult, error) {
	labels := make([]string, len(cells))
	for i, c := range cells {
		labels[i] = c.Label()
	}
	w.mu.Lock()
	w.calls = append(w.calls, labels)
	w.mu.Unlock()
	return w.inner.Execute(cells)
}

func (w *recordingWorker) Shard() (store.ShardData, bool, error) {
	w.mu.Lock()
	w.shards++
	w.mu.Unlock()
	return w.inner.Shard()
}

func (w *recordingWorker) Close() error { return w.inner.Close() }

// TestRunPartitionsAllCellsOnce checks the partition shard.Run
// actually sends: over a healthy fleet, every cell reaches worker
// Owner(specKey, label, n) exactly once, and each Execute call lists
// its cells in campaign enumeration order. Byte identity alone cannot
// catch a misplaced cell, because substreams are keyed by label. Run
// merges what the workers answered, so it never asks for a store.
func TestRunPartitionsAllCellsOnce(t *testing.T) {
	adaptive := testutil.EC2Spec(t, 7, 0)
	adaptive.Repetitions = 8
	adaptive.Stopping = fleet.StoppingSpec{ErrorBound: 0.001, MaxReps: 12}
	specs := map[string]fleet.CampaignSpec{
		"fixed":    testutil.TwoCloudSpec(t, 41, 0),
		"adaptive": adaptive,
	}
	const n = 3
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			specKey := testutil.SpecKeys(t, spec)[0]
			// The single-process run fixes the cell set and its
			// enumeration order, independently of the coordinator.
			ref, err := fleet.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			pos := make(map[string]int, len(ref.Cells))
			for i, c := range ref.Cells {
				pos[c.Cell.Label()] = i
			}
			workers := make([]*recordingWorker, n)
			fleetWorkers := make([]shard.Worker, n)
			for i := range workers {
				workers[i] = &recordingWorker{}
				fleetWorkers[i] = workers[i]
			}
			if _, _, err := shard.Run(shard.Campaign{Spec: spec, RunID: "r1", Workers: fleetWorkers}); err != nil {
				t.Fatal(err)
			}
			seen := make(map[string]int, len(pos))
			for w, rw := range workers {
				if rw.shards != 0 {
					t.Errorf("worker %d was asked for its store %d times, want none", w, rw.shards)
				}
				for _, call := range rw.calls {
					last := -1
					for _, label := range call {
						p, ok := pos[label]
						if !ok {
							t.Fatalf("worker %d executed %s, which is not a campaign cell", w, label)
						}
						if p <= last {
							t.Errorf("worker %d: %s out of enumeration order within one Execute call", w, label)
						}
						last = p
						if own := shard.Owner(specKey, label, n); own != w {
							t.Errorf("cell %s ran on worker %d, Owner names %d", label, w, own)
						}
						seen[label]++
					}
				}
			}
			for label := range pos {
				if seen[label] != 1 {
					t.Errorf("cell %s executed %d times, want exactly once", label, seen[label])
				}
			}
		})
	}
}

// TestInProcWorkerStoreless covers the Dir=="" mode: pure compute, no
// shard store to serve.
func TestInProcWorkerStoreless(t *testing.T) {
	spec := testutil.EC2Spec(t, 7, 0)
	specKey := testutil.SpecKeys(t, spec)[0]
	w := &shard.InProcWorker{}
	rc := shard.RunContext{Spec: spec, SpecKey: specKey, RunID: "r1", Meta: store.RunMeta{CreatedUnix: 1}}
	if err := w.Begin(rc, 0, 1); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	res, err := w.Execute(spec.Cells())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(spec.Cells()) {
		t.Fatalf("got %d results for %d cells", len(res), len(spec.Cells()))
	}
	if _, ok, err := w.Shard(); err != nil || ok {
		t.Fatalf("storeless worker reported a shard store (ok=%v, err=%v)", ok, err)
	}
}
