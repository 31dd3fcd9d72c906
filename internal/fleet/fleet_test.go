package fleet_test

import (
	"math"
	"strings"
	"sync"
	"testing"

	"cloudvar/internal/fleet"
	"cloudvar/internal/netem"
	"cloudvar/internal/simrand"
	"cloudvar/internal/testutil"
	"cloudvar/internal/trace"
)

// testSpec builds the shared small-but-real matrix: two clouds, all
// three regimes, two repetitions — 12 cells.
func testSpec(t *testing.T, workers int) fleet.CampaignSpec {
	return testutil.TwoCloudSpec(t, 7, workers)
}

// TestRunDeterministicAcrossWorkerCounts is the tentpole guarantee:
// the fleet's output is bit-identical at any worker count.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	seq, err := fleet.Run(testSpec(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.Err(); err != nil {
		t.Fatal(err)
	}
	testutil.AssertCellLabels(t, testSpec(t, 1), seq)
	ref := testutil.EncodeResult(t, seq)
	for _, workers := range []int{2, 8} {
		par, err := fleet.Run(testSpec(t, workers))
		if err != nil {
			t.Fatal(err)
		}
		if got := testutil.EncodeResult(t, par); got != ref {
			t.Fatalf("workers=%d: output differs from sequential run", workers)
		}
	}
}

// TestRunCellFailureIsolation mixes an invalid regime into the matrix:
// its cells must fail without perturbing the healthy cells' output.
func TestRunCellFailureIsolation(t *testing.T) {
	bad := trace.Regime{Name: "broken", SendSec: 5} // fails Validate: SendSec without RestSec
	healthy := testSpec(t, 4)
	healthy.Regimes = []trace.Regime{trace.FullSpeed}

	mixed := testSpec(t, 4)
	mixed.Regimes = []trace.Regime{trace.FullSpeed, bad}

	var mu sync.Mutex
	seen := 0
	mixed.Progress = func(ev fleet.Progress) {
		mu.Lock()
		seen++
		mu.Unlock()
		if ev.Total != 8 {
			t.Errorf("progress Total = %d, want 8", ev.Total)
		}
	}

	hres, err := fleet.Run(healthy)
	if err != nil {
		t.Fatal(err)
	}
	mres, err := fleet.Run(mixed)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if seen != 8 {
		t.Fatalf("progress hook fired %d times, want 8", seen)
	}
	mu.Unlock()

	failed := mres.Failed()
	if len(failed) != 4 { // 2 profiles x 1 bad regime x 2 reps
		t.Fatalf("%d failed cells, want 4", len(failed))
	}
	for _, c := range failed {
		if c.Cell.Regime.Name != "broken" {
			t.Fatalf("healthy cell %s reported failure: %v", c.Cell.Label(), c.Err)
		}
		if c.Series != nil {
			t.Fatalf("failed cell %s carries a series", c.Cell.Label())
		}
	}
	if err := mres.Err(); err == nil || !strings.Contains(err.Error(), "4/8 cells failed") {
		t.Fatalf("Err() = %v, want 4/8 summary", err)
	}

	// Healthy cells are bit-identical to the all-healthy run.
	seriesByLabel := func(res fleet.CampaignResult) map[string]*trace.Series {
		out := make(map[string]*trace.Series)
		for _, c := range res.Cells {
			if c.Err == nil {
				out[c.Cell.Label()] = c.Series
			}
		}
		return out
	}
	hseries := seriesByLabel(hres)
	mseries := seriesByLabel(mres)
	if len(mseries) != len(hseries) {
		t.Fatalf("%d healthy series in mixed run, want %d", len(mseries), len(hseries))
	}
	for label, hs := range hseries {
		ms, ok := mseries[label]
		if !ok {
			t.Fatalf("mixed run lost series %s", label)
		}
		if !testutil.SeriesEqual(hs, ms) {
			t.Fatalf("series %s perturbed by sibling failures", label)
		}
	}

	// Group aggregation counts the failures.
	for _, g := range mres.Groups {
		switch g.Regime {
		case "broken":
			if g.Failed != 2 || g.Result.Summary.N != 0 {
				t.Fatalf("broken group: %+v", g)
			}
		default:
			if g.Failed != 0 || g.Result.Summary.N != 2 {
				t.Fatalf("healthy group: failed=%d n=%d", g.Failed, g.Result.Summary.N)
			}
		}
	}
}

func TestRunGroupStatistics(t *testing.T) {
	spec := testSpec(t, 0)
	spec.Regimes = []trace.Regime{trace.FullSpeed}
	spec.Repetitions = 3
	res, err := fleet.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("%d groups, want 2", len(res.Groups))
	}
	for _, g := range res.Groups {
		r := g.Result
		if r.Summary.N != 3 {
			t.Fatalf("group %s has %d samples, want 3", r.Name, r.Summary.N)
		}
		if math.IsNaN(r.Summary.Mean) || r.Summary.Mean <= 0 {
			t.Fatalf("group %s mean = %g", r.Name, r.Summary.Mean)
		}
		if r.Validation.N != 3 {
			t.Fatalf("group %s validation ran over %d samples, want 3", r.Name, r.Validation.N)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (fleet.CampaignSpec{}).Validate(); err == nil {
		t.Fatal("empty spec should fail validation")
	}
	spec := testSpec(t, 0)
	spec.Repetitions = -1
	if err := spec.Validate(); err == nil {
		t.Fatal("negative repetitions should fail validation")
	}
	spec = testSpec(t, 0)
	spec.Config.DurationSec = 0
	if err := spec.Validate(); err == nil {
		t.Fatal("invalid campaign config should fail validation")
	}
	spec = testSpec(t, 0)
	spec.Profiles[0].NewShaper = nil
	if err := spec.Validate(); err == nil {
		t.Fatal("nil shaper factory should fail validation")
	}
}

// TestCellSourceStability pins the substream derivation: the cell
// label fully determines the stream for a given seed.
func TestCellSourceStability(t *testing.T) {
	spec := testSpec(t, 0)
	cells := spec.Cells()
	if len(cells) != 12 {
		t.Fatalf("%d cells, want 12", len(cells))
	}
	a := fleet.CellSource(spec.Seed, cells[3])
	b := fleet.CellSource(spec.Seed, cells[3])
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("CellSource not reproducible for equal (seed, cell)")
		}
	}
	if fleet.CellSource(1, cells[0]).Uint64() == fleet.CellSource(2, cells[0]).Uint64() {
		t.Fatal("distinct seeds should decorrelate cell streams")
	}
}

// TestSpecValidateDuplicateCells ensures a spec whose matrix repeats a
// (profile, regime) — which would silently replay the same substream —
// is rejected up front.
func TestSpecValidateDuplicateCells(t *testing.T) {
	spec := testSpec(t, 0)
	spec.Profiles = append(spec.Profiles, spec.Profiles[0])
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate cell") {
		t.Fatalf("duplicate profile should fail validation, got %v", err)
	}
	spec = testSpec(t, 0)
	spec.Regimes = []trace.Regime{trace.FullSpeed, trace.FullSpeed}
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate cell") {
		t.Fatalf("duplicate regime should fail validation, got %v", err)
	}
	if _, err := fleet.Run(spec); err == nil {
		t.Fatal("Run should reject a duplicate-cell spec")
	}
}

// TestRunPanickingCellIsolated proves a panicking shaper factory is
// folded into that cell's error, the other cells are untouched, and
// the progress hook still reaches Done == Total.
func TestRunPanickingCellIsolated(t *testing.T) {
	spec := testSpec(t, 4)
	spec.Regimes = []trace.Regime{trace.FullSpeed}
	boom := spec.Profiles[1]
	boom.Cloud = "boom"
	boom.NewShaper = func(src *simrand.Source) netem.Shaper { panic("factory exploded") }
	spec.Profiles = append(spec.Profiles, boom)

	var mu sync.Mutex
	maxDone, total := 0, 0
	spec.Progress = func(ev fleet.Progress) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Done > maxDone {
			maxDone = ev.Done
		}
		total = ev.Total
	}

	res, err := fleet.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if maxDone != total || total != 6 {
		t.Fatalf("progress reached %d/%d, want 6/6 even with panicking cells", maxDone, total)
	}
	mu.Unlock()

	failed := res.Failed()
	if len(failed) != 2 {
		t.Fatalf("%d failed cells, want 2 (the panicking profile's reps)", len(failed))
	}
	for _, c := range failed {
		if c.Cell.Profile.Cloud != "boom" {
			t.Fatalf("healthy cell %s failed: %v", c.Cell.Label(), c.Err)
		}
		if !strings.Contains(c.Err.Error(), "panicked") {
			t.Fatalf("panic not surfaced in error: %v", c.Err)
		}
	}
	for _, c := range res.Cells {
		if c.Cell.Profile.Cloud != "boom" && c.Err != nil {
			t.Fatalf("panic leaked into healthy cell %s: %v", c.Cell.Label(), c.Err)
		}
	}
}

// TestRunPanickingProgressHook proves a hook that panics neither
// deadlocks the pool nor yields a zero CellResult with nil Err.
func TestRunPanickingProgressHook(t *testing.T) {
	spec := testSpec(t, 4)
	spec.Regimes = []trace.Regime{trace.FullSpeed} // 4 cells
	calls := 0
	spec.Progress = func(ev fleet.Progress) {
		calls++ // serialized: the hook runs under the fleet's lock
		if calls == 2 {
			panic("hook exploded")
		}
	}
	res, err := fleet.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("%d cells, want 4", len(res.Cells))
	}
	failed := res.Failed()
	if len(failed) != 1 {
		t.Fatalf("%d failed cells, want exactly the one whose hook call panicked", len(failed))
	}
	if !strings.Contains(failed[0].Err.Error(), "panicked") {
		t.Fatalf("hook panic not surfaced: %v", failed[0].Err)
	}
	for _, c := range res.Cells {
		if c.Err == nil && c.Series == nil {
			t.Fatalf("cell %s has neither series nor error", c.Cell.Label())
		}
	}
}
