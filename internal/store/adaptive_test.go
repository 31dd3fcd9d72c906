package store_test

import (
	"reflect"
	"testing"

	"cloudvar/internal/fleet"
	"cloudvar/internal/store"
	"cloudvar/internal/testutil"
)

// stoppingSpec is the shared adaptive policy the identity tests vary.
var stoppingSpec = fleet.StoppingSpec{ErrorBound: 0.02, MaxReps: 30}

// TestStoppingIdentity: an active stopping policy is part of both
// keys, stamps schema 5, and spells its defaults out so sparse and
// explicit policies key identically.
func TestStoppingIdentity(t *testing.T) {
	fixed := testSpec(t, 7)
	adaptive := fixed
	adaptive.Stopping = stoppingSpec

	fixedKey, err := store.SpecKey(fixed)
	if err != nil {
		t.Fatal(err)
	}
	adaptiveKey, err := store.SpecKey(adaptive)
	if err != nil {
		t.Fatal(err)
	}
	if fixedKey == adaptiveKey {
		t.Error("stopping policy did not change the spec key")
	}
	fm, _ := store.Identity(fixed).MatrixKey()
	am, _ := store.Identity(adaptive).MatrixKey()
	if fm == am {
		t.Error("stopping policy did not change the matrix key")
	}

	id := store.Identity(adaptive)
	if id.Schema != 5 {
		t.Errorf("adaptive identity stamped schema %d, want 5", id.Schema)
	}
	if id.Stopping == nil {
		t.Fatal("adaptive identity has no stopping section")
	}
	want := store.StoppingIdentity{Quantile: 0.5, Confidence: 0.95, ErrorBound: 0.02, MinReps: 6, MaxReps: 30}
	if *id.Stopping != want {
		t.Errorf("stopping identity = %+v, want defaults spelled out %+v", *id.Stopping, want)
	}
	// Repetitions is the resolved per-group budget (EC2Spec's 2 clamps
	// up to the effective minimum).
	if got := id.Repetitions; got != adaptive.EffectiveBudget() {
		t.Errorf("adaptive identity repetitions = %d, want the resolved budget %d", got, adaptive.EffectiveBudget())
	}

	// Explicit defaults key identically to the sparse policy.
	explicit := adaptive
	explicit.Stopping.Quantile = 0.5
	explicit.Stopping.Confidence = 0.95
	explicit.Stopping.MinReps = 6
	if k, _ := store.SpecKey(explicit); k != adaptiveKey {
		t.Error("explicit stopping defaults changed the spec key")
	}

	// Fixed-repetition identities stay pre-stopping: schema 2, no
	// stopping section (the omitempty that keeps old keys stable).
	fid := store.Identity(fixed)
	if fid.Schema != 2 || fid.Stopping != nil {
		t.Errorf("fixed identity = schema %d stopping %v, want schema 2 and no stopping", fid.Schema, fid.Stopping)
	}

	// The policy's parameters are all load-bearing.
	for name, mutate := range map[string]func(*fleet.StoppingSpec){
		"quantile":    func(s *fleet.StoppingSpec) { s.Quantile = 0.9; s.MinReps = 6 },
		"confidence":  func(s *fleet.StoppingSpec) { s.Confidence = 0.99; s.MinReps = 6 },
		"error bound": func(s *fleet.StoppingSpec) { s.ErrorBound = 0.05 },
		"min reps":    func(s *fleet.StoppingSpec) { s.MinReps = 10 },
		"max reps":    func(s *fleet.StoppingSpec) { s.MaxReps = 40 },
	} {
		spec := adaptive
		mutate(&spec.Stopping)
		if err := spec.Validate(); err != nil {
			t.Fatalf("mutated %s spec invalid: %v", name, err)
		}
		if k, _ := store.SpecKey(spec); k == adaptiveKey {
			t.Errorf("changing stopping %s did not change the spec key", name)
		}
	}
}

// TestRecordPrecisionRoundTrip: the achieved precision lands in the
// manifest atomically and survives a reload; fixed-repetition results
// are a no-op.
func TestRecordPrecisionRoundTrip(t *testing.T) {
	st := testutil.TempStore(t)
	spec := testSpec(t, 7)
	spec.Repetitions = 8
	spec.Stopping = stoppingSpec
	run, err := st.CreateWithMeta("adaptive", spec, store.RunMeta{})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()

	groups := []fleet.GroupResult{
		{Cloud: "ec2", Instance: "c5.xlarge", Regime: "full-speed",
			Precision: &fleet.GroupPrecision{N: 9, HalfWidth: 0.4, RelErr: 0.012, Converged: true}},
		{Cloud: "ec2", Instance: "c5.xlarge", Regime: "10-30",
			Precision: &fleet.GroupPrecision{N: 30, HalfWidth: -1, RelErr: -1, Diverging: true}},
	}
	if err := run.RecordPrecision(groups); err != nil {
		t.Fatal(err)
	}
	want := []store.PrecisionRecord{
		{Group: "ec2/c5.xlarge/full-speed", N: 9, HalfWidth: 0.4, RelErr: 0.012, Converged: true},
		{Group: "ec2/c5.xlarge/10-30", N: 30, HalfWidth: -1, RelErr: -1, Diverging: true},
	}
	if got := run.Manifest().Precision; !reflect.DeepEqual(got, want) {
		t.Errorf("in-memory manifest precision = %+v, want %+v", got, want)
	}
	// The rewrite must be durable and leave the rest of the manifest —
	// keys included — untouched.
	reloaded, err := st.Manifest("adaptive")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reloaded.Precision, want) {
		t.Errorf("reloaded manifest precision = %+v, want %+v", reloaded.Precision, want)
	}
	key, _ := store.SpecKey(spec)
	if reloaded.SpecKey != key || reloaded.Schema != 5 {
		t.Errorf("rewrite disturbed the manifest: key %.12s schema %d", reloaded.SpecKey, reloaded.Schema)
	}
	// And the run must still be resumable after the rewrite.
	resumed, err := st.Resume("adaptive", spec)
	if err != nil {
		t.Fatal(err)
	}
	resumed.Close()

	// A fixed-repetition result records nothing.
	fixed, err := st.CreateWithMeta("fixed", testSpec(t, 7), store.RunMeta{})
	if err != nil {
		t.Fatal(err)
	}
	defer fixed.Close()
	if err := fixed.RecordPrecision([]fleet.GroupResult{{Cloud: "ec2"}}); err != nil {
		t.Fatal(err)
	}
	m, err := st.Manifest("fixed")
	if err != nil {
		t.Fatal(err)
	}
	if m.Precision != nil {
		t.Errorf("fixed-repetition manifest grew a precision section: %+v", m.Precision)
	}
}
