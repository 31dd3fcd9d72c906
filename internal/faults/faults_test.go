package faults

import (
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestBuildMergesDefaultsAndValidates(t *testing.T) {
	p, err := Build("stall", map[string]float64{"delayMs": 30})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"victims": 1, "at": 0, "count": 2, "delayMs": 30}
	if !reflect.DeepEqual(p.Params, want) {
		t.Errorf("built params %v, want %v", p.Params, want)
	}

	// Idempotence: a built plan's params rebuild to an equal plan —
	// the property expspec canonicalization leans on.
	again, err := Build(p.Name, p.Params)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, p) {
		t.Errorf("rebuild changed the plan: %v vs %v", again, p)
	}

	for name, params := range map[string]map[string]float64{
		"unknown plan":  nil,
		"crash":         {"delayMs": 1},  // not a crash parameter
		"stall":         {"delayMs": -1}, // negative
		"partition":     {"at": 1.5},     // non-integer
		"torn-response": {"count": 0},    // below 1
		"crash-restart": {"probes": 0},   // below 1
		"error-burst":   {"victims": 0},  // below 1
	} {
		if _, err := Build(name, params); err == nil {
			t.Errorf("Build(%q, %v) accepted invalid input", name, params)
		}
	}
}

func TestNamesCoversRegistry(t *testing.T) {
	names := Names()
	if len(names) != len(registry) {
		t.Fatalf("Names lists %d plans, registry holds %d", len(names), len(registry))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
}

func TestInjectorIsDeterministic(t *testing.T) {
	build := func(seed uint64) *Injector {
		in, err := (Plan{Name: "crash", Params: map[string]float64{"victims": 2}}).Injector(seed, 6)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b := build(3), build(3)
	if !reflect.DeepEqual(a.Victims(), b.Victims()) {
		t.Errorf("same seed chose different victims: %v vs %v", a.Victims(), b.Victims())
	}
	if len(a.Victims()) != 2 {
		t.Errorf("victims %v, want 2 of them", a.Victims())
	}
	if got := a.plan.Params["at"]; got != 0 {
		t.Errorf("resolved at = %v, want the registry default 0", got)
	}
	// The victim cap: more victims than workers afflicts everyone.
	in, err := (Plan{Name: "crash", Params: map[string]float64{"victims": 9}}).Injector(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Victims(); len(got) != 3 {
		t.Errorf("victims %v, want all 3 workers", got)
	}
	if _, err := (Plan{Name: "crash"}).Injector(1, 0); err == nil {
		t.Error("injector accepted a zero-worker fleet")
	}
	if _, err := (Plan{Name: "nope"}).Injector(1, 3); err == nil {
		t.Error("injector accepted an unknown plan")
	}
}

// TestWindowSemantics walks each plan's schedule event by event.
func TestWindowSemantics(t *testing.T) {
	state := func(name string, params map[string]float64) *WorkerState {
		t.Helper()
		in, err := (Plan{Name: name, Params: params}).Injector(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		return in.State(0)
	}

	t.Run("crash never heals", func(t *testing.T) {
		s := state("crash", map[string]float64{"at": 1})
		if d := s.NextCall(); d.Err != nil {
			t.Errorf("event 0 is before at=1, got %v", d.Err)
		}
		for i := 0; i < 3; i++ {
			if d := s.NextCall(); d.Err == nil {
				t.Fatalf("crashed worker answered call %d", i)
			}
		}
		if err := s.Health(); err == nil {
			t.Error("crashed worker answered a health probe")
		}
	})

	t.Run("crash-restart heals after probes", func(t *testing.T) {
		s := state("crash-restart", map[string]float64{"probes": 2})
		if d := s.NextCall(); d.Err == nil {
			t.Fatal("victim answered the call that should crash it")
		}
		if err := s.Health(); err == nil {
			t.Fatal("first probe found the worker already restarted")
		}
		if err := s.Health(); err != nil {
			t.Fatalf("second probe should complete the restart: %v", err)
		}
		if d := s.NextCall(); d.Err != nil {
			t.Errorf("restarted worker still failing: %v", d.Err)
		}
	})

	t.Run("stall window", func(t *testing.T) {
		s := state("stall", map[string]float64{"count": 2, "delayMs": 7})
		for i := 0; i < 2; i++ {
			d := s.NextCall()
			if d.Err != nil || d.Delay != 7*time.Millisecond {
				t.Errorf("event %d: %+v, want a 7ms stall", i, d)
			}
		}
		if d := s.NextCall(); d.Delay != 0 {
			t.Errorf("event past the window still stalls: %+v", d)
		}
	})

	t.Run("error-burst leaves health intact", func(t *testing.T) {
		s := state("error-burst", nil) // count 2
		if err := s.Health(); err != nil {
			t.Errorf("health failed during an error burst: %v", err)
		}
		// The probe advanced the clock: one burst event remains.
		if d := s.NextCall(); d.Err == nil {
			t.Error("call inside the burst window succeeded")
		}
		if d := s.NextCall(); d.Err != nil {
			t.Errorf("call past the burst window failed: %v", d.Err)
		}
	})

	t.Run("partition fails health and burns down on probes", func(t *testing.T) {
		s := state("partition", map[string]float64{"count": 2})
		if err := s.Health(); err == nil {
			t.Error("probe inside the partition window succeeded")
		}
		if d := s.NextCall(); d.Err == nil {
			t.Error("call inside the partition window succeeded")
		}
		if err := s.Health(); err != nil {
			t.Errorf("probe past the partition window failed: %v", err)
		}
		if got := s.events; got != 3 {
			t.Errorf("event clock at %d, want 3", got)
		}
	})

	t.Run("torn window", func(t *testing.T) {
		s := state("torn-response", map[string]float64{"count": 1})
		if d := s.NextCall(); !d.Torn {
			t.Error("call inside the torn window not torn")
		}
		if d := s.NextCall(); d.Torn {
			t.Error("call past the torn window torn")
		}
	})

	t.Run("non-victims are inert", func(t *testing.T) {
		in, err := (Plan{Name: "crash"}).Injector(1, 4)
		if err != nil {
			t.Fatal(err)
		}
		victim := map[int]bool{}
		for _, v := range in.Victims() {
			victim[v] = true
		}
		for i := 0; i < 4; i++ {
			if victim[i] {
				continue
			}
			s := in.State(i)
			if d := s.NextCall(); d.Err != nil || d.Delay != 0 || d.Torn {
				t.Errorf("non-victim %d afflicted: %+v", i, d)
			}
			if err := s.Health(); err != nil {
				t.Errorf("non-victim %d unhealthy: %v", i, err)
			}
		}
	})
}

// TestTornBody pins the truncation contract: at most tornBudget bytes
// come through, and the cut always reads as an unexpected EOF — never
// a clean end a JSON decoder would accept.
func TestTornBody(t *testing.T) {
	long := &tornBody{inner: io.NopCloser(strings.NewReader(strings.Repeat("x", 100))), left: tornBudget}
	b, err := io.ReadAll(long)
	if err != io.ErrUnexpectedEOF {
		t.Errorf("long body cut with %v, want io.ErrUnexpectedEOF", err)
	}
	if len(b) > tornBudget {
		t.Errorf("torn body leaked %d bytes, budget is %d", len(b), tornBudget)
	}

	// A body shorter than the budget must still read as torn: the
	// fault is "the response did not arrive whole", regardless of size.
	short := &tornBody{inner: io.NopCloser(strings.NewReader("ok")), left: tornBudget}
	if _, err := io.ReadAll(short); err != io.ErrUnexpectedEOF {
		t.Errorf("short body ended with %v, want io.ErrUnexpectedEOF", err)
	}
}
