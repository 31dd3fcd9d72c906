package simrand

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func mustDist(t *testing.T) *QuantileDist {
	t.Helper()
	// A shape like a Ballani cloud: long lower tail.
	d, err := NewQuantileDist(
		[]float64{0.01, 0.25, 0.50, 0.75, 0.99},
		[]float64{100, 400, 600, 700, 900},
	)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestQuantileDistValidation(t *testing.T) {
	cases := []struct {
		name   string
		probs  []float64
		values []float64
	}{
		{"length mismatch", []float64{0.1, 0.9}, []float64{1}},
		{"too few knots", []float64{0.5}, []float64{1}},
		{"prob out of range", []float64{-0.1, 0.9}, []float64{1, 2}},
		{"prob above one", []float64{0.1, 1.5}, []float64{1, 2}},
		{"non-increasing probs", []float64{0.5, 0.5}, []float64{1, 2}},
		{"decreasing values", []float64{0.1, 0.9}, []float64{2, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewQuantileDist(c.probs, c.values); err == nil {
				t.Error("expected error, got nil")
			}
		})
	}
}

func TestQuantileInterpolation(t *testing.T) {
	d := mustDist(t)
	cases := []struct {
		p, want float64
	}{
		{0.01, 100},
		{0.25, 400},
		{0.50, 600},
		{0.75, 700},
		{0.99, 900},
		{0.375, 500}, // midway between 0.25 and 0.50 knots
		{0.0, 100},   // clamped below
		{1.0, 900},   // clamped above
	}
	for _, c := range cases {
		if got := d.Quantile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestQuantileMonotone(t *testing.T) {
	d := mustDist(t)
	f := func(a, b float64) bool {
		pa := math.Abs(math.Mod(a, 1))
		pb := math.Abs(math.Mod(b, 1))
		if pa > pb {
			pa, pb = pb, pa
		}
		return d.Quantile(pa) <= d.Quantile(pb)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleWithinSupport(t *testing.T) {
	d := mustDist(t)
	src := New(17)
	for i := 0; i < 10000; i++ {
		v := d.Sample(src)
		lo, hi := d.values[0], d.values[len(d.values)-1]
		if v < lo || v > hi {
			t.Fatalf("sample %g outside [%g, %g]", v, lo, hi)
		}
	}
}

func TestSampleMedianConverges(t *testing.T) {
	d := mustDist(t)
	src := New(19)
	const n = 50001
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = d.Sample(src)
	}
	sort.Float64s(samples)
	med := samples[n/2]
	if math.Abs(med-d.Quantile(0.5)) > 15 { // ~2.5% of the 600 median
		t.Errorf("sample median %g far from distribution median %g", med, d.Quantile(0.5))
	}
}

func TestKnotsReturnsCopies(t *testing.T) {
	d := mustDist(t)
	p1, v1 := d.Knots()
	p1[0] = 0.999
	v1[0] = -1
	p2, v2 := d.Knots()
	if p2[0] == 0.999 || v2[0] == -1 {
		t.Error("Knots exposed internal state")
	}
}

func TestQuantileNaN(t *testing.T) {
	d := mustDist(t)
	if !math.IsNaN(d.Quantile(math.NaN())) {
		t.Error("Quantile(NaN) should be NaN")
	}
}

func TestMustQuantileDistPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustQuantileDist did not panic on invalid input")
		}
	}()
	MustQuantileDist([]float64{0.5}, []float64{1})
}
