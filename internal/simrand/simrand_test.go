package simrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at step %d: %d != %d", i, got, want)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("seeds 1 and 2 produced %d identical outputs in 100 draws", same)
	}
}

func TestNearbySeedsDecorrelated(t *testing.T) {
	// splitmix64 seeding should decorrelate even adjacent seeds.
	a := New(0)
	b := New(1)
	matches := 0
	for i := 0; i < 10000; i++ {
		if a.Uint64()>>63 == b.Uint64()>>63 {
			matches++
		}
	}
	// Expect ~5000 sign agreements; flag gross correlation only.
	if matches < 4500 || matches > 5500 {
		t.Errorf("adjacent seeds correlated: %d/10000 top-bit agreements", matches)
	}
}

func TestSubstreamReproducible(t *testing.T) {
	s1 := New(7).Substream("bandwidth")
	s2 := New(7).Substream("bandwidth")
	for i := 0; i < 100; i++ {
		if s1.Uint64() != s2.Uint64() {
			t.Fatal("same-name substreams diverged")
		}
	}
	s3 := New(7).Substream("bandwidth")
	s4 := New(7).Substream("latency")
	diff := false
	for i := 0; i < 10; i++ {
		if s3.Uint64() != s4.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different-name substreams produced identical output")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	f := func(skip uint8) bool {
		for i := 0; i < int(skip); i++ {
			s.Uint64()
		}
		v := s.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %f, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	f := func(raw int16) bool {
		n := int(raw)
		if n <= 0 {
			n = 1 - n // make positive
		}
		if n == 0 {
			n = 1
		}
		v := s.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(99)
	const buckets = 10
	const draws = 100000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[s.Intn(buckets)]++
	}
	want := draws / buckets
	for b, c := range counts {
		if math.Abs(float64(c-want)) > float64(want)*0.05 {
			t.Errorf("bucket %d count %d deviates >5%% from %d", b, c, want)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(21)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal(10, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("normal mean = %f, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Errorf("normal stddev = %f, want ~3", math.Sqrt(variance))
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(31)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Exponential(2)
		if v < 0 {
			t.Fatalf("negative exponential variate %f", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("exponential(rate=2) mean = %f, want ~0.5", mean)
	}
}

func TestExponentialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exponential(0) did not panic")
		}
	}()
	New(1).Exponential(0)
}

func TestParetoSupport(t *testing.T) {
	s := New(41)
	for i := 0; i < 10000; i++ {
		if v := s.Pareto(2, 3); v < 2 {
			t.Fatalf("Pareto(2,3) produced %f < xm", v)
		}
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(43)
	for i := 0; i < 10000; i++ {
		if v := s.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %f", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(51)
	f := func(raw uint8) bool {
		n := int(raw%64) + 1
		p := s.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBernoulliProbability(t *testing.T) {
	s := New(61)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency = %f", frac)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(71)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(5, 9)
		if v < 5 || v >= 9 {
			t.Fatalf("Uniform(5,9) produced %f", v)
		}
	}
}

func TestMul128(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul128(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul128(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkNormal(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Normal(0, 1)
	}
}
