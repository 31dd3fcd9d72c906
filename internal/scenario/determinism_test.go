package scenario_test

import (
	"testing"

	"cloudvar/internal/fleet"
	"cloudvar/internal/scenario"
	"cloudvar/internal/store"
	"cloudvar/internal/testutil"
)

// expandedSpec expands the shared test matrix with one scenario.
func expandedSpec(t *testing.T, sc scenario.Scenario, seed uint64, workers int) fleet.CampaignSpec {
	t.Helper()
	spec, err := sc.Expand(testutil.TwoCloudSpec(t, seed, workers))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestScenarioDeterminismProperty is the registry-wide property: for
// EVERY registered scenario (table-driven over All(), so a newly
// registered scenario is covered without touching this file), the
// campaign output is byte-identical
//
//  1. at workers=1 vs workers=8, and
//  2. across two runs with the same seed,
//
// while a different seed changes the bytes (the test would otherwise
// pass vacuously on a scenario that ignored its randomness).
func TestScenarioDeterminismProperty(t *testing.T) {
	scenarios := scenario.All()
	if len(scenarios) < 5 {
		t.Fatalf("registry lists %d scenarios, want >= 5", len(scenarios))
	}
	for _, sc := range scenarios {
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			seq, err := fleet.Run(expandedSpec(t, sc, 7, 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := seq.Err(); err != nil {
				t.Fatal(err)
			}
			ref := testutil.EncodeResult(t, seq)
			testutil.AssertCellLabels(t, expandedSpec(t, sc, 7, 1), seq)

			par, err := fleet.Run(expandedSpec(t, sc, 7, 8))
			if err != nil {
				t.Fatal(err)
			}
			if got := testutil.EncodeResult(t, par); got != ref {
				t.Error("workers=8 output differs from workers=1")
			}

			again, err := fleet.Run(expandedSpec(t, sc, 7, 1))
			if err != nil {
				t.Fatal(err)
			}
			if got := testutil.EncodeResult(t, again); got != ref {
				t.Error("second same-seed run differs from the first")
			}

			other, err := fleet.Run(expandedSpec(t, sc, 8, 1))
			if err != nil {
				t.Fatal(err)
			}
			if got := testutil.EncodeResult(t, other); got == ref {
				t.Error("different seed produced identical output; the scenario ignores its randomness")
			}
		})
	}
}

// TestScenarioSpecKeysProperty is the identity side of the property:
// every registered scenario keys differently from the plain spec and
// from every other scenario (spec AND matrix key), so no two stored
// scenario runs can ever be resumed into or compared against each
// other.
func TestScenarioSpecKeysProperty(t *testing.T) {
	plain := testutil.TwoCloudSpec(t, 7, 0)
	plainMatrix, err := store.Identity(plain).MatrixKey()
	if err != nil {
		t.Fatal(err)
	}
	seenMatrix := map[string]string{plainMatrix: "plain"}
	seenSpec := map[string]string{}
	for _, sc := range scenario.All() {
		spec := expandedSpec(t, sc, 7, 0)
		mk, err := store.Identity(spec).MatrixKey()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seenMatrix[mk]; dup {
			t.Errorf("%s shares a matrix key with %s", sc.Name, prev)
		}
		seenMatrix[mk] = sc.Name
		sk, err := store.SpecKey(spec)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seenSpec[sk]; dup {
			t.Errorf("%s shares a spec key with %s", sc.Name, prev)
		}
		seenSpec[sk] = sc.Name

		// Same scenario, different params: different identity.
		reparam := sc
		reparam.Params = map[string]float64{}
		for k, v := range sc.Params {
			reparam.Params[k] = v + 1
		}
		respec := plain
		respec.Scenario = reparam.ID()
		rk, err := store.Identity(respec).MatrixKey()
		if err != nil {
			t.Fatal(err)
		}
		if rk == mk {
			t.Errorf("%s: changing params did not change the matrix key", sc.Name)
		}
	}
}

// TestScenarioResumeByteIdentical extends the store's resume
// guarantee to expanded specs: a scenario campaign interrupted halfway
// and resumed is byte-identical to an uninterrupted one. One scenario
// suffices — resume flows through the same per-cell substreams for
// all of them — but the scenario used involves both correlated and
// bucket state (regime-flip), the most state-laden path.
func TestScenarioResumeByteIdentical(t *testing.T) {
	sc, err := scenario.ByName("regime-flip")
	if err != nil {
		t.Fatal(err)
	}
	st := testutil.TempStore(t)

	spec := expandedSpec(t, sc, 7, 8)
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

	// Interrupted twin: persist only half the cells, then resume.
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
		t.Error("resumed scenario campaign differs from uninterrupted run")
	}
}
