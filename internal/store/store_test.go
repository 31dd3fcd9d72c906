package store_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cloudvar/internal/fleet"
	"cloudvar/internal/store"
	"cloudvar/internal/testutil"
	"cloudvar/internal/trace"
)

// Run must satisfy the orchestrator's persistence interface.
var _ fleet.Sink = (*store.Run)(nil)

func testSpec(t *testing.T, seed uint64) fleet.CampaignSpec {
	t.Helper()
	return testutil.EC2Spec(t, seed, 0)
}

func TestSpecKeyNormalisesDefaults(t *testing.T) {
	base := testSpec(t, 7)

	explicit := base
	explicit.Confidence = 0.95
	explicit.ErrorBound = 0.05
	scheduled := base
	scheduled.Workers = 8
	scheduled.Progress = func(fleet.Progress) {}

	want, err := store.SpecKey(base)
	if err != nil {
		t.Fatal(err)
	}
	for name, spec := range map[string]fleet.CampaignSpec{
		"explicit statistical defaults": explicit,
		"scheduling-only fields":        scheduled,
	} {
		got, err := store.SpecKey(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s changed the spec key", name)
		}
	}

	// Nil regimes must hash like the explicit standard list.
	allRegimes := base
	allRegimes.Regimes = nil
	explicitAll := base
	explicitAll.Regimes = trace.Regimes()
	a, _ := store.SpecKey(allRegimes)
	b, _ := store.SpecKey(explicitAll)
	if a != b {
		t.Error("nil regimes and explicit standard regimes hash differently")
	}
}

func TestSpecKeySeparatesContent(t *testing.T) {
	base := testSpec(t, 7)
	baseKey, err := store.SpecKey(base)
	if err != nil {
		t.Fatal(err)
	}

	otherSeed := base
	otherSeed.Seed = 8
	otherReps := base
	otherReps.Repetitions = 3
	otherConfig := base
	otherConfig.Config.BinSec = 5
	otherScenario := base
	otherScenario.Scenario = fleet.ScenarioID{Name: "noisy-neighbor", Params: map[string]float64{"depth": 0.45}}
	for name, spec := range map[string]fleet.CampaignSpec{
		"seed":        otherSeed,
		"repetitions": otherReps,
		"config":      otherConfig,
		"scenario":    otherScenario,
	} {
		k, err := store.SpecKey(spec)
		if err != nil {
			t.Fatal(err)
		}
		if k == baseKey {
			t.Errorf("changing %s did not change the spec key", name)
		}
	}
}

func TestMatrixKeyIgnoresSeedOnly(t *testing.T) {
	base := testSpec(t, 7)
	otherSeed := testSpec(t, 8)

	mk1, err := store.Identity(base).MatrixKey()
	if err != nil {
		t.Fatal(err)
	}
	mk2, err := store.Identity(otherSeed).MatrixKey()
	if err != nil {
		t.Fatal(err)
	}
	if mk1 != mk2 {
		t.Error("matrix key depends on the seed")
	}
	sk1, _ := store.SpecKey(base)
	sk2, _ := store.SpecKey(otherSeed)
	if sk1 == sk2 {
		t.Error("spec key ignores the seed")
	}
	if sk1 == mk1 {
		t.Error("spec and matrix key namespaces collide")
	}

	otherMatrix := testSpec(t, 7)
	otherMatrix.Repetitions = 3
	mk3, _ := store.Identity(otherMatrix).MatrixKey()
	if mk3 == mk1 {
		t.Error("matrix key ignores the repetition count")
	}

	// The scenario is part of the matrix: a noisy run is a different
	// experiment, not a different day.
	scenarioSpec := testSpec(t, 7)
	scenarioSpec.Scenario = fleet.ScenarioID{Name: "stragglers", Params: map[string]float64{"prob": 0.25}}
	mk4, _ := store.Identity(scenarioSpec).MatrixKey()
	if mk4 == mk1 {
		t.Error("matrix key ignores the scenario")
	}
}

func TestCreateResumeRoundTrip(t *testing.T) {
	st := testutil.TempStore(t)
	spec := testSpec(t, 7)
	// Cells returns append order and fleet.Run appends in completion
	// order; one worker completes cells in enumeration order, so this
	// pass can check the order index by index. The default-workers
	// pass at the end checks what holds at any worker count.
	spec.Workers = 1

	run, err := st.CreateWithMeta("day1", spec, store.RunMeta{CreatedUnix: 1700000000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.CreateWithMeta("day1", spec, store.RunMeta{CreatedUnix: 1700000000}); err == nil {
		t.Fatal("duplicate run id should be rejected")
	}

	// Persist the real campaign through the sink.
	spec.Sink = run
	res, err := fleet.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}

	cells, err := st.Cells("day1")
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(res.Cells) {
		t.Fatalf("%d cells persisted, want %d", len(cells), len(res.Cells))
	}
	for i, rec := range cells {
		want := res.Cells[i]
		if rec.Label != want.Cell.Label() {
			t.Errorf("cell %d label %q, want %q", i, rec.Label, want.Cell.Label())
		}
		if !testutil.SeriesEqual(rec.Series, want.Series) {
			t.Errorf("cell %s series did not round-trip bit-exactly", rec.Label)
		}
	}

	// Resume with the same spec succeeds; a different seed is the
	// stream-splicing hazard and must be rejected.
	spec.Sink = nil
	r2, err := st.Resume("day1", spec)
	if err != nil {
		t.Fatal(err)
	}
	done, err := r2.Completed()
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != len(res.Cells) {
		t.Fatalf("Completed returned %d cells, want %d", len(done), len(res.Cells))
	}
	r2.Close()
	if _, err := st.Resume("day1", testSpec(t, 99)); err == nil {
		t.Fatal("resume with a different seed should be rejected")
	}
	if _, err := st.Resume("day1", func() fleet.CampaignSpec {
		s := testSpec(t, 7)
		s.Config.BinSec = 5
		return s
	}()); err == nil {
		t.Fatal("resume with a different config should be rejected")
	}
	if _, err := st.Resume("day1", func() fleet.CampaignSpec {
		s := testSpec(t, 7)
		s.Scenario = fleet.ScenarioID{Name: "loss-burst"}
		return s
	}()); err == nil {
		t.Fatal("resume with a different scenario should be rejected")
	}

	ms, err := st.ListRuns()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].RunID != "day1" || ms[0].CreatedUnix != 1700000000 {
		t.Fatalf("ListRuns = %+v", ms)
	}
	wantKey, _ := store.SpecKey(testSpec(t, 7))
	wantMatrix, _ := store.Identity(testSpec(t, 7)).MatrixKey()
	if ms[0].SpecKey != wantKey || ms[0].MatrixKey != wantMatrix {
		t.Fatal("manifest keys do not match the spec's")
	}

	// At the default worker count cells are appended as they complete,
	// in any order: the store must still hold exactly the campaign's
	// labels, each with its series bit-exact.
	par := testSpec(t, 7)
	parStore := testutil.TempStore(t)
	parRun, err := parStore.CreateWithMeta("day1", par, store.RunMeta{CreatedUnix: 1700000000})
	if err != nil {
		t.Fatal(err)
	}
	par.Sink = parRun
	parRes, err := fleet.Run(par)
	if err != nil {
		t.Fatal(err)
	}
	if err := parRes.Err(); err != nil {
		t.Fatal(err)
	}
	if err := parRun.Close(); err != nil {
		t.Fatal(err)
	}
	parCells, err := parStore.Cells("day1")
	if err != nil {
		t.Fatal(err)
	}
	if len(parCells) != len(res.Cells) {
		t.Fatalf("default workers persisted %d cells, want %d", len(parCells), len(res.Cells))
	}
	stored := make(map[string]*trace.Series, len(parCells))
	for _, rec := range parCells {
		stored[rec.Label] = rec.Series
	}
	for _, want := range res.Cells {
		got, ok := stored[want.Cell.Label()]
		if !ok {
			t.Errorf("default workers persisted no cell %s", want.Cell.Label())
			continue
		}
		if !testutil.SeriesEqual(got, want.Series) {
			t.Errorf("cell %s series at default workers differs from the one-worker run", want.Cell.Label())
		}
	}
}

// TestManifestRecordsScenario checks the acceptance criterion that a
// stored run carries its scenario identity.
func TestManifestRecordsScenario(t *testing.T) {
	st := testutil.TempStore(t)
	spec := testSpec(t, 7)
	spec.Scenario = fleet.ScenarioID{Name: "noisy-neighbor", Params: map[string]float64{"depth": 0.45}}
	run, err := st.CreateWithMeta("noisy", spec, store.RunMeta{})
	if err != nil {
		t.Fatal(err)
	}
	run.Close()
	m, err := st.Manifest("noisy")
	if err != nil {
		t.Fatal(err)
	}
	if m.Spec.Scenario.Name != "noisy-neighbor" || m.Spec.Scenario.Params["depth"] != 0.45 {
		t.Fatalf("manifest scenario = %+v", m.Spec.Scenario)
	}
}

func TestCellsToleratesTornTrailingLine(t *testing.T) {
	st := testutil.TempStore(t)
	dir := st.Dir()
	spec := testSpec(t, 7)
	run, err := st.CreateWithMeta("day1", spec, store.RunMeta{})
	if err != nil {
		t.Fatal(err)
	}
	spec.Sink = run
	if _, err := fleet.Run(spec); err != nil {
		t.Fatal(err)
	}
	run.Close()

	before, err := st.Cells("day1")
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a torn, newline-less trailing
	// record must be ignored, not fail the load.
	path := filepath.Join(dir, "runs", "day1", "cells.jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"schema":1,"label":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	after, err := st.Cells("day1")
	if err != nil {
		t.Fatalf("torn trailing line should be tolerated: %v", err)
	}
	if len(after) != len(before) {
		t.Fatalf("%d cells after tear, want %d", len(after), len(before))
	}

	// Now tear a real record: keep the first complete line plus a
	// truncated second one. Reopening for append must drop the torn
	// tail so the resumed cells do not splice onto it — after the
	// resume, every record in the file must parse.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	firstNL := strings.IndexByte(string(raw), '\n')
	if err := os.WriteFile(path, raw[:firstNL+1+30], 0o644); err != nil {
		t.Fatal(err)
	}
	spec2 := testSpec(t, 7)
	reopened, err := st.Resume("day1", spec2)
	if err != nil {
		t.Fatal(err)
	}
	spec2.Sink = reopened
	res, err := fleet.Run(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	reopened.Close()
	healed, err := st.Cells("day1")
	if err != nil {
		t.Fatalf("cells file corrupt after resume over a torn tail: %v", err)
	}
	if len(healed) != len(before) {
		t.Fatalf("%d cells after healing resume, want %d", len(healed), len(before))
	}
}

func TestPutRejectsFailedCells(t *testing.T) {
	st := testutil.TempStore(t)
	spec := testSpec(t, 7)
	run, err := st.CreateWithMeta("day1", spec, store.RunMeta{})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	bad := fleet.CellResult{Cell: spec.Cells()[0], Err: os.ErrInvalid}
	if err := run.Put(bad); err == nil {
		t.Fatal("failed cell should not persist")
	}
	if cells, _ := st.Cells("day1"); len(cells) != 0 {
		t.Fatalf("failed cell reached disk: %d records", len(cells))
	}
}

func TestRunIDValidation(t *testing.T) {
	st := testutil.TempStore(t)
	for _, id := range []string{"", ".hidden", "a/b", "a b", strings.Repeat("x", 5) + "/../y"} {
		if _, err := st.CreateWithMeta(id, testSpec(t, 7), store.RunMeta{}); err == nil {
			t.Errorf("run id %q should be rejected", id)
		}
	}
}

// TestCreateWithMetaRecordsExperimentSpec: the manifest carries the
// canonical experiment-spec document and its hash verbatim, next to
// the SpecKey/MatrixKey content addresses.
func TestCreateWithMetaRecordsExperimentSpec(t *testing.T) {
	st := testutil.TempStore(t)
	spec := testSpec(t, 7)
	doc := []byte(`{"schemaVersion": 1, "name": "meta"}`)

	run, err := st.CreateWithMeta("day1", spec, store.RunMeta{
		CreatedUnix:        1700000000,
		ExperimentSpec:     doc,
		ExperimentSpecHash: "abc123",
	})
	if err != nil {
		t.Fatal(err)
	}
	run.Close()

	m, err := st.Manifest("day1")
	if err != nil {
		t.Fatal(err)
	}
	if m.ExperimentSpecHash != "abc123" {
		t.Errorf("hash = %q", m.ExperimentSpecHash)
	}
	var got, want any
	if err := json.Unmarshal(m.ExperimentSpec, &got); err != nil {
		t.Fatalf("stored spec does not parse: %v", err)
	}
	if err := json.Unmarshal(doc, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stored spec = %s, want %s", m.ExperimentSpec, doc)
	}

	// Legacy Create leaves the spec fields empty, and invalid spec
	// bytes are rejected before anything is staged.
	legacy, err := st.CreateWithMeta("day2", spec, store.RunMeta{})
	if err != nil {
		t.Fatal(err)
	}
	legacy.Close()
	m2, err := st.Manifest("day2")
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.ExperimentSpec) != 0 || m2.ExperimentSpecHash != "" {
		t.Errorf("legacy manifest should carry no spec: %+v", m2)
	}
	if _, err := st.CreateWithMeta("day3", spec, store.RunMeta{ExperimentSpec: []byte("{broken")}); err == nil {
		t.Fatal("invalid spec JSON should be rejected")
	}
}
