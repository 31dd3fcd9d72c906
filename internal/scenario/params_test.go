package scenario_test

import (
	"strings"
	"testing"

	"cloudvar/internal/scenario"
)

func TestBuildDefaultsMatchRegistry(t *testing.T) {
	for _, sc := range scenario.All() {
		name := sc.Name
		built, err := scenario.Build(name, nil)
		if err != nil {
			t.Fatalf("Build(%q, nil): %v", name, err)
		}
		reg, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if built.ID().String() != reg.ID().String() {
			t.Errorf("Build(%q, nil) = %v, registry has %v", name, built.ID(), reg.ID())
		}
	}
}

func TestBuildOverridesParams(t *testing.T) {
	sc, err := scenario.Build("noisy-neighbor", map[string]float64{"depth": 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Params["depth"] != 0.8 {
		t.Errorf("depth = %g, want 0.8", sc.Params["depth"])
	}
	// Untouched params keep their registry defaults.
	if sc.Params["mean_gap_sec"] != 900 {
		t.Errorf("mean_gap_sec = %g, want the 900 default", sc.Params["mean_gap_sec"])
	}
	// The identity reflects the override: different params, different
	// conditions, so stored runs cannot collide.
	base, err := scenario.ByName("noisy-neighbor")
	if err != nil {
		t.Fatal(err)
	}
	if sc.ID().String() == base.ID().String() {
		t.Error("override did not change the scenario identity")
	}
}

func TestBuildRejectsUnknownParam(t *testing.T) {
	_, err := scenario.Build("stragglers", map[string]float64{"speed": 2})
	if err == nil {
		t.Fatal("unknown parameter should be rejected")
	}
	if !strings.Contains(err.Error(), `no parameter "speed"`) || !strings.Contains(err.Error(), "depth") {
		t.Errorf("error should name the unknown and known params: %v", err)
	}
}

func TestBuildUnknownScenario(t *testing.T) {
	if _, err := scenario.Build("quiet-day", nil); err == nil {
		t.Fatal("unknown scenario should be rejected")
	}
}

// TestBuildUserScenarioWithoutConstructor: a user-registered scenario
// resolves with nil params but rejects overrides (no constructor to
// rebuild its conditions from).
func TestBuildUserScenarioWithoutConstructor(t *testing.T) {
	sc := scenario.Scenario{
		Name:        "params-test-custom",
		Description: "registered by the params test",
		Params:      map[string]float64{"depth": 0.3},
		Conditions:  []scenario.Condition{scenario.Overlay{Depth: 0.3}},
	}
	if err := scenario.Register(sc); err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.Build("params-test-custom", nil); err != nil {
		t.Fatalf("nil params should resolve the registered scenario: %v", err)
	}
	// Restating the registered values verbatim is not an override —
	// this is what a canonicalized spec document does on re-Build, so
	// it must stay idempotent.
	same, err := scenario.Build("params-test-custom", map[string]float64{"depth": 0.3})
	if err != nil {
		t.Fatalf("verbatim params should resolve the registered scenario: %v", err)
	}
	if same.ID().String() != sc.ID().String() {
		t.Errorf("verbatim params changed the identity: %v vs %v", same.ID(), sc.ID())
	}
	_, err = scenario.Build("params-test-custom", map[string]float64{"depth": 0.5})
	if err == nil || !strings.Contains(err.Error(), "does not support parameter overrides") {
		t.Fatalf("override on a constructor-less scenario should be rejected, got %v", err)
	}
}
