package longitudinal_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"cloudvar/internal/core"
	"cloudvar/internal/fleet"
	"cloudvar/internal/longitudinal"
	"cloudvar/internal/store"
	"cloudvar/internal/testutil"
	"cloudvar/internal/trace"
)

// testSpec is the shared single-profile matrix with the repetition
// count the drift statistics need.
func testSpec(t *testing.T, seed uint64, workers int) fleet.CampaignSpec {
	t.Helper()
	spec := testutil.EC2Spec(t, seed, workers)
	spec.Repetitions = 3
	return spec
}

// runPersisted executes the spec into a new store run and returns the
// result plus the number of cells that actually executed (vs were
// restored from disk).
func runPersisted(t *testing.T, st *store.Store, runID string, spec fleet.CampaignSpec) (fleet.CampaignResult, int) {
	t.Helper()
	run, err := st.CreateWithMeta(runID, spec, store.RunMeta{})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	res, executed := runWith(t, run, spec)
	// Adaptive runs record their achieved precision in the manifest
	// (a no-op for fixed-repetition specs), as cloudbench does.
	if err := run.RecordPrecision(res.Groups); err != nil {
		t.Fatal(err)
	}
	return res, executed
}

func runWith(t *testing.T, sink fleet.Sink, spec fleet.CampaignSpec) (fleet.CampaignResult, int) {
	t.Helper()
	executed := 0
	spec.Sink = sink
	spec.Progress = func(fleet.Progress) { executed++ }
	res, err := fleet.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	return res, executed
}

// TestResumeByteIdentical is the tentpole acceptance criterion: a
// campaign interrupted partway and resumed re-executes zero completed
// cells, and both the final CampaignResult and the drift report
// against a second run are byte-identical to an uninterrupted run —
// at workers=1 and workers=8.
func TestResumeByteIdentical(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			st := testutil.TempStore(t)

			// The second "day": same matrix, different seed — the
			// drift comparison partner for both variants.
			day2, _ := runPersisted(t, st, "day2", testSpec(t, 8, workers))
			_ = day2

			// Uninterrupted reference run. (The run IDs are chosen
			// not to be substrings of any other report text, since
			// the byte comparison normalises them away.)
			spec := testSpec(t, 7, workers)
			full, _ := runPersisted(t, st, "alpha", spec)

			// Interrupted run: persist only the first half of the
			// cells, as if the process died mid-campaign.
			interrupted, err := st.CreateWithMeta("bravo", spec, store.RunMeta{})
			if err != nil {
				t.Fatal(err)
			}
			half := len(full.Cells) / 2
			persisted := make(map[string]bool)
			for _, c := range full.Cells[:half] {
				if err := interrupted.Put(c); err != nil {
					t.Fatal(err)
				}
				persisted[c.Cell.Label()] = true
			}

			// Resume. Zero persisted cells may re-execute.
			resumed, executed := runWith(t, interrupted, spec)
			interrupted.Close()
			if want := len(full.Cells) - half; executed != want {
				t.Fatalf("resume executed %d cells, want exactly the %d missing ones", executed, want)
			}

			if got, want := testutil.EncodeResult(t, resumed), testutil.EncodeResult(t, full); got != want {
				t.Fatal("resumed CampaignResult is not byte-identical to the uninterrupted run")
			}

			// The drift report against day2 must not see any
			// difference either.
			report := func(runID string) []byte {
				runs, err := longitudinal.Load(st, runID, "day2")
				if err != nil {
					t.Fatal(err)
				}
				rep, err := longitudinal.Analyze(runs, longitudinal.Options{})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				// The run ID appears in the rendered report; normalise
				// it away so the byte comparison sees only data.
				if err := rep.WriteMarkdown(&buf); err != nil {
					t.Fatal(err)
				}
				return bytes.ReplaceAll(buf.Bytes(), []byte(runID), []byte("RUN"))
			}
			if !bytes.Equal(report("alpha"), report("bravo")) {
				t.Fatal("drift report from the resumed run is not byte-identical to the uninterrupted run's")
			}
		})
	}
}

// adaptiveTestSpec is testSpec under a sequential-stopping policy
// whose bound is unreachable, so every group deterministically grows
// past the minimum into reallocated budget — the schedule itself is
// exercised, not just the fixed prefix.
func adaptiveTestSpec(t *testing.T, seed uint64, workers int) fleet.CampaignSpec {
	t.Helper()
	spec := testutil.EC2Spec(t, seed, workers)
	spec.Repetitions = 8
	spec.Stopping = fleet.StoppingSpec{ErrorBound: 0.001, MaxReps: 12}
	return spec
}

// TestAdaptiveResumeByteIdentical extends the resume acceptance
// criterion to adaptive campaigns: because the stopping decisions are
// a pure function of cell data, a resumed run re-derives the same
// schedule, re-executes only the missing cells, and produces a result
// (including the achieved-precision records) byte-identical to the
// uninterrupted run — at workers=1 and workers=8.
func TestAdaptiveResumeByteIdentical(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			st := testutil.TempStore(t)

			// Drift partner: same adaptive matrix, different seed.
			day2, _ := runPersisted(t, st, "day2", adaptiveTestSpec(t, 8, workers))
			_ = day2

			spec := adaptiveTestSpec(t, 7, workers)
			full, _ := runPersisted(t, st, "alpha", spec)

			interrupted, err := st.CreateWithMeta("bravo", spec, store.RunMeta{})
			if err != nil {
				t.Fatal(err)
			}
			half := len(full.Cells) / 2
			for _, c := range full.Cells[:half] {
				if err := interrupted.Put(c); err != nil {
					t.Fatal(err)
				}
			}

			resumed, executed := runWith(t, interrupted, spec)
			if err := interrupted.RecordPrecision(resumed.Groups); err != nil {
				t.Fatal(err)
			}
			interrupted.Close()
			if want := len(full.Cells) - half; executed != want {
				t.Fatalf("adaptive resume executed %d cells, want exactly the %d missing ones", executed, want)
			}
			if got, want := testutil.EncodeResult(t, resumed), testutil.EncodeResult(t, full); got != want {
				t.Fatal("resumed adaptive CampaignResult is not byte-identical to the uninterrupted run")
			}

			report := func(runID string) []byte {
				runs, err := longitudinal.Load(st, runID, "day2")
				if err != nil {
					t.Fatal(err)
				}
				rep, err := longitudinal.Analyze(runs, longitudinal.Options{})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := rep.WriteMarkdown(&buf); err != nil {
					t.Fatal(err)
				}
				return bytes.ReplaceAll(buf.Bytes(), []byte(runID), []byte("RUN"))
			}
			alpha := report("alpha")
			if !bytes.Contains(alpha, []byte("## Adaptive stopping precision")) {
				t.Error("drift report lacks the adaptive precision section")
			}
			if !bytes.Equal(alpha, report("bravo")) {
				t.Fatal("drift report from the resumed adaptive run is not byte-identical to the uninterrupted run's")
			}
		})
	}
}

// TestResumeAcrossWorkerCounts: a run persisted at workers=1 then
// resumed at workers=8 (and vice versa) still reproduces the
// sequential result exactly.
func TestResumeAcrossWorkerCounts(t *testing.T) {
	st := testutil.TempStore(t)
	ref, _ := runPersisted(t, st, "ref", testSpec(t, 7, 1))

	spec1 := testSpec(t, 7, 1)
	partial, err := st.CreateWithMeta("mixed", spec1, store.RunMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if err := partial.Put(ref.Cells[0]); err != nil {
		t.Fatal(err)
	}
	res, executed := runWith(t, partial, testSpec(t, 7, 8))
	partial.Close()
	if executed != len(ref.Cells)-1 {
		t.Fatalf("executed %d, want %d", executed, len(ref.Cells)-1)
	}
	if testutil.EncodeResult(t, res) != testutil.EncodeResult(t, ref) {
		t.Fatal("worker-count change across resume broke determinism")
	}
}

// syntheticRun fabricates a stored-run shape directly, bypassing the
// store, so drift scenarios can be scripted precisely.
func syntheticRun(runID, matrixKey string, seed uint64, bandwidth func(rep int, regime string) []float64) longitudinal.RunData {
	rd := longitudinal.RunData{Manifest: store.Manifest{
		Schema: store.SchemaVersion, RunID: runID,
		SpecKey: "spec-" + runID, MatrixKey: matrixKey,
		Spec: store.SpecIdentity{Seed: seed},
	}}
	for _, regime := range []string{"full-speed", "10-30"} {
		for rep := 0; rep < 6; rep++ {
			s := trace.NewSeries(fmt.Sprintf("ec2/c5.xlarge/%s/rep%d", regime, rep), 10)
			for i, bw := range bandwidth(rep, regime) {
				s.Points = append(s.Points, trace.Point{TimeSec: float64(i) * 10, BandwidthGbps: bw})
			}
			rd.Cells = append(rd.Cells, store.CellRecord{
				Schema: store.SchemaVersion,
				Label:  s.Label, Cloud: "ec2", Instance: "c5.xlarge",
				Regime: regime, Rep: rep, Series: s,
			})
		}
	}
	return rd
}

func TestAnalyzeDetectsDrift(t *testing.T) {
	// steady produces low-CoV series whose per-repetition means spread
	// by ±0.25 around the level, so same-level runs have overlapping
	// median CIs (no detectable drift) while halved-level runs do not.
	steady := func(level, jitter float64) func(rep int, regime string) []float64 {
		return func(rep int, regime string) []float64 {
			out := make([]float64, 20)
			for i := range out {
				out[i] = level + 0.1*float64(rep) + jitter*float64(i%5)
			}
			return out
		}
	}
	base := syntheticRun("day1", "m1", 1, steady(9, 0.05))

	t.Run("no drift", func(t *testing.T) {
		same := syntheticRun("day2", "m1", 2, steady(9, 0.06))
		rep, err := longitudinal.Analyze([]longitudinal.RunData{base, same}, longitudinal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Drifted() {
			t.Fatal("near-identical runs flagged as drifted")
		}
		for _, k := range rep.Kappa {
			if k.Err != nil || k.Kappa != 1 {
				t.Fatalf("kappa = %v (%v), want 1", k.Kappa, k.Err)
			}
		}
	})

	t.Run("median drift", func(t *testing.T) {
		// Halved bandwidth: medians must become distinguishable.
		slower := syntheticRun("day2", "m1", 2, steady(4.5, 0.05))
		rep, err := longitudinal.Analyze([]longitudinal.RunData{base, slower}, longitudinal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Drifted() {
			t.Fatal("halved bandwidth not flagged as drift")
		}
		found := false
		for _, g := range rep.Groups {
			if g.CompareErr[1] == nil && g.Distinguishable[1] {
				found = true
				if g.MedianShift[1] > -0.4 {
					t.Fatalf("median shift %.2f, want about -0.5", g.MedianShift[1])
				}
			}
		}
		if !found {
			t.Fatal("no group distinguishable from baseline")
		}
	})

	t.Run("conclusion flip lowers kappa", func(t *testing.T) {
		// Same medians, wildly different variability: the per-cell
		// conclusion bands flip even though medians hold.
		noisy := syntheticRun("day2", "m1", 2, func(rep int, regime string) []float64 {
			out := make([]float64, 20)
			for i := range out {
				out[i] = 9 + 6*float64(i%2) - 3 // alternates 6 and 12
			}
			return out
		})
		rep, err := longitudinal.Analyze([]longitudinal.RunData{base, noisy}, longitudinal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Kappa) != 1 {
			t.Fatalf("%d kappa results, want 1", len(rep.Kappa))
		}
		k := rep.Kappa[0]
		if k.Err == nil && k.Kappa >= 0.8 {
			t.Fatalf("kappa %.2f despite every conclusion flipping", k.Kappa)
		}
		if len(k.Disagreements) != 12 {
			t.Fatalf("%d disagreements, want 12", len(k.Disagreements))
		}
		if !rep.Drifted() {
			t.Fatal("conclusion flips not flagged as drift")
		}
	})
}

func TestAnalyzeRejectsIncomparableRuns(t *testing.T) {
	a := syntheticRun("day1", "m1", 1, func(int, string) []float64 { return []float64{9, 9, 9} })
	b := syntheticRun("day2", "m2", 2, func(int, string) []float64 { return []float64{9, 9, 9} })
	if _, err := longitudinal.Analyze([]longitudinal.RunData{a, b}, longitudinal.Options{}); err == nil {
		t.Fatal("different matrix keys must be rejected")
	}
	if _, err := longitudinal.Analyze([]longitudinal.RunData{a}, longitudinal.Options{}); err == nil {
		t.Fatal("a single run is not a longitudinal analysis")
	}
}

// TestLoadRefusesShardStampedRun: a shard store is one worker's
// fragment of a distributed campaign; drifting over it would report
// missing cells as drift. Load must refuse it and point at the merge.
func TestLoadRefusesShardStampedRun(t *testing.T) {
	spec := testSpec(t, 7, 1)
	st := testutil.TempStore(t)
	run, err := st.CreateWithMeta("frag", spec, store.RunMeta{
		CreatedUnix: 1,
		Shard:       &store.ShardStamp{Index: 0, Count: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	run.Close()
	_, err = longitudinal.Load(st, "frag")
	if err == nil {
		t.Fatal("Load accepted a shard-stamped run")
	}
	if !strings.Contains(err.Error(), "merge the shards") {
		t.Errorf("refusal should point at the merge, got: %v", err)
	}
}

// TestAnalyzeNamesScenarioMismatch checks the scenario gate: two runs
// whose matrices differ because their scenarios differ get an error
// that names the scenarios, not just opaque hashes.
func TestAnalyzeNamesScenarioMismatch(t *testing.T) {
	flat := func(int, string) []float64 { return []float64{9, 9, 9} }
	quiet := syntheticRun("day1", "m-quiet", 1, flat)
	noisy := syntheticRun("day2", "m-noisy", 2, flat)
	noisy.Manifest.Spec.Scenario = fleet.ScenarioID{
		Name: "noisy-neighbor", Params: map[string]float64{"depth": 0.45},
	}
	_, err := longitudinal.Analyze([]longitudinal.RunData{quiet, noisy}, longitudinal.Options{})
	if err == nil {
		t.Fatal("mismatched scenarios must be rejected")
	}
	for _, want := range []string{"noisy-neighbor", "scenario"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestWriteMarkdownSections(t *testing.T) {
	a := syntheticRun("day1", "m1", 1, func(rep int, _ string) []float64 {
		return []float64{9, 9.1, 9.2, 9 + float64(rep)/10}
	})
	b := syntheticRun("day2", "m1", 2, func(rep int, _ string) []float64 {
		return []float64{9.1, 9.2, 9.15, 9.05 + float64(rep)/10}
	})
	a.Manifest.Fingerprints = map[string]core.Fingerprint{
		"ec2/c5.xlarge": {BaseRTTms: 0.1, BaseBandwidthGbps: 9.6},
	}
	b.Manifest.Fingerprints = map[string]core.Fingerprint{
		"ec2/c5.xlarge": {BaseRTTms: 0.1, BaseBandwidthGbps: 9.5},
	}
	rep, err := longitudinal.Analyze([]longitudinal.RunData{a, b}, longitudinal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# Longitudinal drift report",
		"scenario none",
		"## Runs",
		"## Fingerprint gate",
		"baselines match",
		"## Per-group medians",
		"ec2/c5.xlarge/full-speed",
		"## Conclusion agreement",
		"**Verdict:**",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
