package workload

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"cloudvar/internal/simrand"
	"cloudvar/internal/stats"
)

func twoClientSpec() Spec {
	return Spec{
		AggregateRPS: 4,
		RequestKB:    1024,
		Clients: []Client{
			{ID: "web", RateFraction: 0.7, SLOClass: "interactive", Arrival: Arrival{Process: Poisson}},
			{ID: "etl", RateFraction: 0.3, SLOClass: "batch", Arrival: Arrival{Process: Gamma, CV: 2}},
		},
	}
}

func TestSpecValidate(t *testing.T) {
	if err := twoClientSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		edit func(*Spec)
		want string
	}{
		{"zero-rate", func(s *Spec) { s.AggregateRPS = 0 }, "must be positive"},
		{"neg-size", func(s *Spec) { s.RequestKB = -1 }, "must be >= 0"},
		{"no-clients", func(s *Spec) { s.Clients = nil }, "no clients"},
		{"bad-id", func(s *Spec) { s.Clients[0].ID = "-x" }, "must match"},
		{"dup-id", func(s *Spec) { s.Clients[1].ID = "web" }, "duplicate client"},
		{"zero-fraction", func(s *Spec) { s.Clients[0].RateFraction = 0 }, "outside (0, 1]"},
		{"fraction-sum", func(s *Spec) { s.Clients[0].RateFraction = 0.5 }, "sum to 0.8"},
		{"bad-arrival", func(s *Spec) { s.Clients[1].Arrival.CV = 0 }, "gamma arrivals require cv > 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := twoClientSpec()
			c.edit(&s)
			err := s.Validate()
			if err == nil {
				t.Fatal("Validate should fail")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestArrivalValidateExclusivity(t *testing.T) {
	bad := []Arrival{
		{Process: Poisson, CV: 1},
		{Process: Poisson, Times: []float64{1}},
		{Process: Gamma, CV: 1, Shape: 2},
		{Process: Weibull, Shape: 1, CV: 2},
		{Process: Trace, Times: []float64{1}, Shape: 3},
		{Process: Trace},
		{Process: Trace, Times: []float64{2, 1}},
		{Process: Trace, Times: []float64{-1}},
		{Process: Trace, Times: []float64{math.Inf(1)}},
		{Process: ""},
		{Process: "uniform"},
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("arrival %d (%+v) should be invalid", i, a)
		}
	}
	good := []Arrival{
		{Process: Poisson},
		{Process: Gamma, CV: 0.5},
		{Process: Weibull, Shape: 2},
		{Process: Trace, Times: []float64{0, 0, 1.5, 3}},
	}
	for i, a := range good {
		if err := a.Validate(); err != nil {
			t.Errorf("arrival %d: %v", i, err)
		}
	}
}

func TestDefaultsAndSummary(t *testing.T) {
	s := twoClientSpec()
	if got := s.Classes(); !reflect.DeepEqual(got, []string{"batch", "interactive"}) {
		t.Errorf("Classes() = %v", got)
	}
	if got := s.Summary(); got != "web:poisson+etl:gamma @ 4 rps" {
		t.Errorf("Summary() = %q", got)
	}
	if got := (Spec{}).Summary(); got != "none" {
		t.Errorf("zero Summary() = %q", got)
	}
	if got := (Spec{}).EffectiveRequestKB(); got != DefaultRequestKB {
		t.Errorf("EffectiveRequestKB() = %g", got)
	}
	if got := (Client{}).Class(); got != DefaultClass {
		t.Errorf("Class() = %q", got)
	}
	// 1024 KiB = 2^23 bits = 0.008388608 Gbit.
	if got := s.RequestGbit(); math.Abs(got-0.008388608) > 1e-15 {
		t.Errorf("RequestGbit() = %g", got)
	}
}

// TestStreamDeterminism is the engine-level half of the fleet's
// workers=1-vs-8 property: equal (client, duration, substream seed)
// inputs give byte-identical streams.
func TestStreamDeterminism(t *testing.T) {
	spec := twoClientSpec()
	for _, c := range spec.Clients {
		a := c.Stream(spec.AggregateRPS, 300, simrand.New(7).Substream("client/"+c.ID), nil)
		b := c.Stream(spec.AggregateRPS, 300, simrand.New(7).Substream("client/"+c.ID), nil)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("client %s: equal seeds gave different streams", c.ID)
		}
		if len(a) == 0 {
			t.Fatalf("client %s: empty stream over 300 s at %g rps", c.ID, spec.AggregateRPS*c.RateFraction)
		}
		for i := 1; i < len(a); i++ {
			if a[i] < a[i-1] {
				t.Fatalf("client %s: stream not sorted at %d", c.ID, i)
			}
		}
	}
}

// TestStreamIndependence: distinct client ids key distinct substreams
// — two clients with identical processes must not march in lockstep.
func TestStreamIndependence(t *testing.T) {
	c1 := Client{ID: "a", RateFraction: 0.5, Arrival: Arrival{Process: Poisson}}
	c2 := Client{ID: "b", RateFraction: 0.5, Arrival: Arrival{Process: Poisson}}
	s1 := c1.Stream(4, 300, simrand.New(7).Substream("client/"+c1.ID), nil)
	s2 := c2.Stream(4, 300, simrand.New(7).Substream("client/"+c2.ID), nil)
	if reflect.DeepEqual(s1, s2) {
		t.Fatal("distinct client ids produced identical streams")
	}
}

// TestTraceStreamReplay: trace clients replay verbatim, clip to the
// duration, and never consume the random source.
func TestTraceStreamReplay(t *testing.T) {
	c := Client{ID: "replay", RateFraction: 1, Arrival: Arrival{Process: Trace, Times: []float64{0, 1, 2, 250, 301}}}
	src := simrand.New(7).Substream("client/replay")
	before := src.Float64()
	src = simrand.New(7).Substream("client/replay")
	got := c.Stream(4, 300, src, nil)
	if want := []float64{0, 1, 2, 250}; !reflect.DeepEqual(got, want) {
		t.Fatalf("trace stream %v, want %v", got, want)
	}
	if after := src.Float64(); after != before {
		t.Fatal("trace replay consumed the random source")
	}
}

// TestArrivalProcessMoments checks each stochastic process empirically:
// the mean gap must normalise to 1/rate and the gap CV must track the
// configured one. Tolerances are loose (5%) — this is a sanity gate on
// the parameterisation algebra, not a distribution test.
func TestArrivalProcessMoments(t *testing.T) {
	const rate = 2.0
	cases := []struct {
		name   string
		a      Arrival
		wantCV float64
	}{
		{"poisson", Arrival{Process: Poisson}, 1},
		{"gamma-bursty", Arrival{Process: Gamma, CV: 2}, 2},
		{"gamma-regular", Arrival{Process: Gamma, CV: 0.3}, 0.3},
		{"weibull-heavy", Arrival{Process: Weibull, Shape: 0.7}, 1.462},  // sqrt(Γ(1+2/k)/Γ(1+1/k)²−1)
		{"weibull-regular", Arrival{Process: Weibull, Shape: 2}, 0.5227}, // ditto
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := simrand.New(20200225).Substream("moments/" + c.name)
			gaps := make([]float64, 200_000)
			for i := range gaps {
				gaps[i] = c.a.gap(rate, src)
			}
			mean := stats.Mean(gaps)
			if math.Abs(mean-1/rate) > 0.05/rate {
				t.Errorf("mean gap %g, want %g within 5%%", mean, 1/rate)
			}
			cv := stats.CoefficientOfVariation(gaps)
			if math.Abs(cv-c.wantCV) > 0.05*c.wantCV {
				t.Errorf("gap CV %g, want %g within 5%%", cv, c.wantCV)
			}
		})
	}
}

func TestTraceCSVRoundTrip(t *testing.T) {
	times := []float64{0, 0.25, 1.5, 1.5, 301.75}
	got, err := ReadTraceCSV(strings.NewReader("time_sec\n0\n0.25\n1.5\n1.5\n301.75\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, times) {
		t.Fatalf("round trip %v, want %v", got, times)
	}

	bad := []string{
		"",
		"wrong_header\n1\n",
		"time_sec\nnope\n",
		"time_sec\n2\n1\n", // decreasing
		"time_sec\n-1\n",
	}
	for i, s := range bad {
		if _, err := ReadTraceCSV(strings.NewReader(s)); err == nil {
			t.Errorf("trace %d should be rejected", i)
		}
	}
}

func TestCellMetricsRollups(t *testing.T) {
	m := &CellMetrics{Clients: []ClientMetrics{
		{ID: "a", Class: "interactive", LatencyMs: []float64{1, 2}},
		{ID: "b", Class: "batch", LatencyMs: []float64{3}},
		{ID: "c", Class: "interactive", LatencyMs: []float64{4}},
	}}
	if got := m.Requests(); got != 4 {
		t.Errorf("Requests() = %d", got)
	}
	want := map[string][]float64{"interactive": {1, 2, 4}, "batch": {3}}
	if got := m.ClassLatencies(); !reflect.DeepEqual(got, want) {
		t.Errorf("ClassLatencies() = %v", got)
	}
}

func ExampleSpec_Summary() {
	fmt.Println(twoClientSpec().Summary())
	// Output: web:poisson+etl:gamma @ 4 rps
}
