package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
)

func sampleSeries(t *testing.T) *Series {
	t.Helper()
	s := NewSeries("test/full-speed", 10)
	points := []Point{
		{TimeSec: 0, BandwidthGbps: 8, Retransmissions: 2, RTTms: 0.3, CPUFrac: 0.5},
		{TimeSec: 10, BandwidthGbps: 9, Retransmissions: 0, RTTms: 0.2, CPUFrac: 0.6},
		{TimeSec: 20, BandwidthGbps: 4.5, Retransmissions: 7, RTTms: 1.5, CPUFrac: 0.4},
		{TimeSec: 30, BandwidthGbps: 9, Retransmissions: 1, RTTms: 0.25, CPUFrac: 0.55},
	}
	for _, p := range points {
		if err := s.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestAppendOrdering(t *testing.T) {
	s := NewSeries("x", 10)
	if err := s.Append(Point{TimeSec: 10}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Point{TimeSec: 5}); err == nil {
		t.Error("out-of-order append should fail")
	}
	if err := s.Append(Point{TimeSec: 10}); err != nil {
		t.Errorf("equal-time append should succeed: %v", err)
	}
}

// TestAppendRefusesNaNTime: a NaN time is not ordered against any
// other, so Append refuses it wherever it falls, the first point
// included, and the series keeps the points before it.
func TestAppendRefusesNaNTime(t *testing.T) {
	s := NewSeries("x", 10)
	if err := s.Append(Point{TimeSec: math.NaN()}); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Errorf("first point at NaN s: error %v, want a NaN refusal", err)
	}
	if err := s.Append(Point{TimeSec: 0}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Point{TimeSec: math.NaN()}); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Errorf("second point at NaN s: error %v, want a NaN refusal", err)
	}
	if len(s.Points) != 1 {
		t.Errorf("series holds %d points after two refusals, want 1", len(s.Points))
	}
	if err := s.Append(Point{TimeSec: math.Inf(-1)}); err == nil {
		t.Error("a point at -Inf s after one at 0 s should fail")
	}
}

// TestAppendBandwidthsGrowsOnce: the column is appended into dst with
// one allocation at most, whatever dst held.
func TestAppendBandwidthsGrowsOnce(t *testing.T) {
	s := NewSeries("x", 10)
	s.Points = make([]Point, 1000)
	for i := range s.Points {
		s.Points[i] = Point{TimeSec: float64(i), BandwidthGbps: float64(i % 7)}
	}
	for _, dst := range [][]float64{nil, make([]float64, 3, 10)} {
		var got []float64
		allocs := testing.AllocsPerRun(5, func() { got = s.AppendBandwidths(dst) })
		if allocs > 1 || len(got) != len(dst)+len(s.Points) || got[len(got)-1] != float64(999%7) {
			t.Errorf("appending %d bandwidths to %d: %v allocations, %d values", len(s.Points), len(dst), allocs, len(got))
		}
	}
}

func TestColumns(t *testing.T) {
	s := sampleSeries(t)
	bw := s.Bandwidths()
	if len(bw) != 4 || bw[2] != 4.5 {
		t.Errorf("Bandwidths = %v", bw)
	}
	if got := s.RetransmissionTotal(); got != 10 {
		t.Errorf("RetransmissionTotal = %d, want 10", got)
	}
}

func TestSummary(t *testing.T) {
	s := sampleSeries(t)
	sum := s.Summary()
	if sum.N != 4 {
		t.Errorf("Summary.N = %d", sum.N)
	}
	if sum.Min != 4.5 || sum.Max != 9 {
		t.Errorf("Summary bounds = [%g, %g]", sum.Min, sum.Max)
	}
}

func TestCumulativeTrafficTB(t *testing.T) {
	s := NewSeries("x", 10)
	_ = s.Append(Point{TimeSec: 0, BandwidthGbps: 8})
	_ = s.Append(Point{TimeSec: 10, BandwidthGbps: 8})
	cum := s.CumulativeTrafficTB()
	// 8 Gbps × 10 s = 80 Gbit = 10 GB = 0.01 TB per point.
	if math.Abs(cum[0]-0.01) > 1e-12 || math.Abs(cum[1]-0.02) > 1e-12 {
		t.Errorf("cumulative = %v", cum)
	}
	if !isNonDecreasing(cum) {
		t.Error("cumulative traffic must be non-decreasing")
	}
}

func isNonDecreasing(xs []float64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			return false
		}
	}
	return true
}

func TestMaxStepRatio(t *testing.T) {
	s := NewSeries("x", 10)
	_ = s.Append(Point{TimeSec: 0, BandwidthGbps: 10})
	_ = s.Append(Point{TimeSec: 10, BandwidthGbps: 5}) // 50% drop
	_ = s.Append(Point{TimeSec: 20, BandwidthGbps: 6}) // 20% rise
	if got := s.MaxStepRatio(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("MaxStepRatio = %g, want 0.5", got)
	}
	// Zero previous sample is skipped, not a division by zero.
	z := NewSeries("z", 10)
	_ = z.Append(Point{TimeSec: 0, BandwidthGbps: 0})
	_ = z.Append(Point{TimeSec: 10, BandwidthGbps: 5})
	if got := z.MaxStepRatio(); got != 0 {
		t.Errorf("MaxStepRatio with zero start = %g", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := sampleSeries(t)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, s.Label, s.IntervalSec)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != len(s.Points) {
		t.Fatalf("round trip lost points: %d vs %d", len(back.Points), len(s.Points))
	}
	for i := range s.Points {
		if s.Points[i] != back.Points[i] {
			t.Errorf("point %d: %+v != %+v", i, s.Points[i], back.Points[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), "x", 10); err == nil {
		t.Error("empty CSV should error")
	}
	bad := "time_sec,bandwidth_gbps,retransmissions,rtt_ms,cpu_frac\nnot-a-number,1,2,3,4\n"
	if _, err := ReadCSV(strings.NewReader(bad), "x", 10); err == nil {
		t.Error("malformed number should error")
	}
	short := "h\n1,2\n"
	if _, err := ReadCSV(strings.NewReader(short), "x", 10); err == nil {
		t.Error("wrong field count should error")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := sampleSeries(t)
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Series
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Label != s.Label || back.IntervalSec != s.IntervalSec || !slices.Equal(back.Points, s.Points) {
		t.Errorf("JSON round trip mismatch: %+v", back)
	}
}

func TestRegimes(t *testing.T) {
	all := Regimes()
	if len(all) != 3 {
		t.Fatalf("Regimes() returned %d", len(all))
	}
	for _, r := range all {
		if err := r.Validate(); err != nil {
			t.Errorf("%s: %v", r.Name, err)
		}
	}
	if !FullSpeed.Continuous() || Send10R30.Continuous() {
		t.Error("Continuous flags wrong")
	}
}

func TestRegimeValidate(t *testing.T) {
	bad := Regime{Name: "bad", SendSec: -1, RestSec: 10}
	if err := bad.Validate(); err == nil {
		t.Error("negative phase should fail")
	}
	half := Regime{Name: "half", SendSec: 10}
	if err := half.Validate(); err == nil {
		t.Error("send without rest should fail")
	}
}

func TestRegimeByName(t *testing.T) {
	for _, name := range []string{"full-speed", "10-30", "5-30"} {
		r, err := RegimeByName(name)
		if err != nil || r.Name != name {
			t.Errorf("RegimeByName(%q) = %v, %v", name, r, err)
		}
	}
	if _, err := RegimeByName("20-20"); err == nil {
		t.Error("unknown regime should error")
	}
}
