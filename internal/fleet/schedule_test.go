package fleet_test

import (
	"errors"
	"strings"
	"testing"

	"cloudvar/internal/fleet"
	"cloudvar/internal/testutil"
)

// runCells is the executor the Schedule tests drive: the workers'
// entry point, answering each batch in order.
func runCells(t *testing.T, spec fleet.CampaignSpec) func([]fleet.Cell) ([]fleet.CellResult, error) {
	return func(batch []fleet.Cell) ([]fleet.CellResult, error) {
		res, err := fleet.RunCells(spec, batch)
		if err != nil {
			t.Fatal(err)
		}
		return res, nil
	}
}

// TestScheduleFixedIsOneBatch: a fixed campaign is the schedule's
// single batch — the matrix in Cells() order — and assembles to
// exactly what Run returns.
func TestScheduleFixedIsOneBatch(t *testing.T) {
	spec := testutil.TwoCloudSpec(t, 41, 1)
	var batches [][]fleet.Cell
	exec := runCells(t, spec)
	got, err := fleet.Schedule(spec, func(batch []fleet.Cell) ([]fleet.CellResult, error) {
		batches = append(batches, batch)
		return exec(batch)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 1 {
		t.Fatalf("fixed campaign ran %d batches, want 1", len(batches))
	}
	want := spec.Cells()
	if len(batches[0]) != len(want) {
		t.Fatalf("batch holds %d cells, the matrix %d", len(batches[0]), len(want))
	}
	for i, c := range batches[0] {
		if c.Label() != want[i].Label() {
			t.Fatalf("batch cell %d is %s, Cells() has %s", i, c.Label(), want[i].Label())
		}
	}
	run, err := fleet.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if testutil.EncodeResult(t, got) != testutil.EncodeResult(t, run) {
		t.Error("Schedule's fixed result differs from Run's")
	}
}

// TestScheduleAdaptiveBatchesInEnumerationOrder: under a stopping
// policy every batch lists its groups in enumeration order, each
// group's repetitions ascending from where its previous batch ended,
// and the campaign equals Run's.
func TestScheduleAdaptiveBatchesInEnumerationOrder(t *testing.T) {
	spec := adaptiveSpec(t, 7, 1, 8, fleet.StoppingSpec{ErrorBound: 0.001, MaxReps: 12})
	group := map[string]int{} // "cloud/instance/regime" -> enumeration index
	for _, c := range spec.Cells() {
		k := c.Profile.Cloud + "/" + c.Profile.Instance + "/" + c.Regime.Name
		if _, ok := group[k]; !ok {
			group[k] = len(group)
		}
	}
	next := make([]int, len(group)) // each group's next repetition
	batches := 0
	exec := runCells(t, spec)
	got, err := fleet.Schedule(spec, func(batch []fleet.Cell) ([]fleet.CellResult, error) {
		batches++
		prev := -1
		for i, c := range batch {
			g := group[c.Profile.Cloud+"/"+c.Profile.Instance+"/"+c.Regime.Name]
			if g < prev || c.Rep != next[g] {
				t.Fatalf("batch %d cell %d is %s, out of enumeration order", batches, i, c.Label())
			}
			prev, next[g] = g, c.Rep+1
		}
		return exec(batch)
	})
	if err != nil {
		t.Fatal(err)
	}
	if batches < 2 {
		t.Fatalf("adaptive campaign ran %d batches, want several", batches)
	}
	run, err := fleet.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if testutil.EncodeResult(t, got) != testutil.EncodeResult(t, run) {
		t.Error("Schedule's adaptive result differs from Run's")
	}
}

// TestScheduleReturnsExecError: an executor failure ends the schedule
// at once and comes back unchanged.
func TestScheduleReturnsExecError(t *testing.T) {
	spec := adaptiveSpec(t, 7, 1, 8, fleet.StoppingSpec{ErrorBound: 0.001, MaxReps: 12})
	boom := errors.New("worker fleet lost")
	calls := 0
	exec := runCells(t, spec)
	_, err := fleet.Schedule(spec, func(batch []fleet.Cell) ([]fleet.CellResult, error) {
		calls++
		if calls == 2 {
			return nil, boom
		}
		return exec(batch)
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Schedule returned %v, want the executor's error", err)
	}
	if calls != 2 {
		t.Errorf("Schedule issued %d batches, want none after the failing second", calls)
	}
}

// TestScheduleRefusesMisshapenAnswers: the barrier accepts exactly one
// result per batch cell, in batch order, and names the batch and the
// position where an answer went wrong.
func TestScheduleRefusesMisshapenAnswers(t *testing.T) {
	spec := adaptiveSpec(t, 7, 1, 8, fleet.StoppingSpec{ErrorBound: 0.001, MaxReps: 12})
	exec := runCells(t, spec)
	cases := []struct {
		name   string
		round  int // the batch whose answer is mangled
		mangle func([]fleet.CellResult) []fleet.CellResult
		want   string
	}{
		{"short", 1, func(r []fleet.CellResult) []fleet.CellResult { return r[:len(r)-1] }, "batch 1 answered 11 results for 12 cells"},
		{"long", 1, func(r []fleet.CellResult) []fleet.CellResult { return append(r, r[0]) }, "batch 1 answered 13 results for 12 cells"},
		{"wrong cell", 1, func(r []fleet.CellResult) []fleet.CellResult { r[2].Cell.Rep += 5; return r }, "batch 1 result 2 is cell ec2/c5.xlarge/full-speed/rep7, want ec2/c5.xlarge/full-speed/rep2"},
		{"swapped", 2, func(r []fleet.CellResult) []fleet.CellResult { r[0], r[1] = r[1], r[0]; return r }, "batch 2 result 0 is cell"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			round := 0
			_, err := fleet.Schedule(spec, func(batch []fleet.Cell) ([]fleet.CellResult, error) {
				round++
				res, err := exec(batch)
				if round == tc.round {
					res = tc.mangle(res)
				}
				return res, err
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Schedule accepted a %s answer or misnamed it: %v, want %q", tc.name, err, tc.want)
			}
			if round != tc.round {
				t.Errorf("Schedule issued %d batches, want none after the refused batch %d", round, tc.round)
			}
		})
	}
}
