package stats

// Selection must answer every quantile with the bits the sort-based
// path gives: QuantileSorted over sort.Float64s order, and Summary what
// refSummarize gives. The property test sweeps the inputs that break
// selection code — NaNs, which sort first; infinities next to an
// interpolation point at frac 0, where 0·Inf must stay NaN; one
// element; sizes at which the summary's ranks coincide; ties across
// every rank; and the sorted, reversed and organ-pipe orders that
// defeat a median-of-3 pivot — and FuzzQuantileSelect explores past
// them.

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"testing"

	"cloudvar/internal/simrand"
)

var updateCorpus = flag.Bool("update", false, "rewrite the committed fuzz seed corpus under testdata/fuzz from the in-code seeds")

// sameQuantile reports whether a selected quantile matches the sorted
// one (refQuantile): equal bits, any two NaNs, or — when the input
// mixes −0 and +0, whose order no sort fixes — zeros of either sign.
func sameQuantile(got, want float64, xs []float64) bool {
	return sameFloat(got, want) || got == 0 && want == 0 && mixesZeros(xs)
}

func mixesZeros(xs []float64) bool {
	var neg, pos bool
	for _, x := range xs {
		if x == 0 {
			if math.Signbit(x) {
				neg = true
			} else {
				pos = true
			}
		}
	}
	return neg && pos
}

// checkSelect compares Quantile and SelectQuantile with the sort-based
// reference at p, and SelectQuantile with refSelectQuantile bit for
// bit (NaN payloads too, up to the sign of a mixed zero), and checks
// that Quantile leaves xs untouched and that SelectQuantile only
// permutes its buffer.
func checkSelect(t *testing.T, name string, xs []float64, p float64) {
	t.Helper()
	want := refQuantile(xs, p)
	orig := append([]float64(nil), xs...)
	if got := Quantile(xs, p); !sameQuantile(got, want, xs) {
		t.Errorf("%s: Quantile(p=%v) = %v (%#x), sort gives %v (%#x)", name, p, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("%s: Quantile modified its input at %d", name, i)
		}
	}
	buf := append([]float64(nil), xs...)
	got := SelectQuantile(buf, p)
	if !sameQuantile(got, want, xs) {
		t.Errorf("%s: SelectQuantile(p=%v) = %v, sort gives %v", name, p, got, want)
	}
	if ref := refSelectQuantile(append([]float64(nil), xs...), p); math.Float64bits(got) != math.Float64bits(ref) && !(got == 0 && ref == 0 && mixesZeros(xs)) {
		t.Errorf("%s: SelectQuantile(p=%v) = %v (%#x), the selecting path gives %v (%#x)", name, p, got, math.Float64bits(got), ref, math.Float64bits(ref))
	}
	if !samePermutation(buf, xs) {
		t.Errorf("%s: SelectQuantile(p=%v) changed the multiset of its buffer", name, p)
	}
}

// checkSummary compares the selecting Sample.Summary with the
// sort-based reference, and checks that it only permuted the buffer.
func checkSummary(t *testing.T, name string, xs []float64) {
	t.Helper()
	want := refSummarize(xs)
	var s Sample
	got := s.Reset(xs).Summary()
	gotQ := []float64{got.Min, got.P01, got.P25, got.Median, got.P75, got.P90, got.P99, got.Max}
	wantQ := []float64{want.Min, want.P01, want.P25, want.Median, want.P75, want.P90, want.P99, want.Max}
	same := got.N == want.N && sameFloat(got.Mean, want.Mean) && sameFloat(got.StdDev, want.StdDev) && sameFloat(got.CoV, want.CoV)
	for i := range gotQ {
		same = same && sameQuantile(gotQ[i], wantQ[i], xs)
	}
	if !same {
		t.Errorf("%s: Summary() = %+v, sort gives %+v", name, got, want)
	}
	if !samePermutation(s.buf, xs) {
		t.Errorf("%s: Summary changed the multiset of its buffer", name)
	}
}

// samePermutation reports whether a and b hold the same values, bit
// for bit, in any order.
func samePermutation(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		slices.Sort(out)
		return out
	}
	return slices.Equal(key(a), key(b))
}

// selectInputs are the named inputs of the property test.
func selectInputs() map[string][]float64 {
	nan, inf := math.NaN(), math.Inf(1)
	in := map[string][]float64{
		"one":              {3.5},
		"two":              {2, 1},
		"nan-only":         {nan, nan, nan},
		"nan-first":        {nan, 1, 2},
		"nans-inside":      {4, nan, 1, nan, 3, 2},
		"inf-at-frac0":     {1, inf},
		"neg-inf-at-frac0": {-inf, 1, 2},
		"infs-mid":         {1, 2, 3, inf, inf},
		"inf-both":         {-inf, -inf, 0, inf, inf},
		"zeros-mixed":      {0, math.Copysign(0, -1), 0, math.Copysign(0, -1), 1, -1},
		"zeros-negative":   {math.Copysign(0, -1), math.Copysign(0, -1), math.Copysign(0, -1)},
		"three":            {3, 1, 2},
		"four":             {4, 1, 3, 2},
		"five":             {5, 1, 4, 2, 3},
	}
	// Six levels of ten ties each, interleaved: every order statistic a
	// summary reads sits in a run of ten ties.
	ties := make([]float64, 60)
	for i := range ties {
		ties[i] = float64(i % 6)
	}
	in["ties"] = ties
	// Two -Inf and two +Inf among 196 finite values: the P01 and P99
	// interpolations each read an infinity.
	tails := make([]float64, 200)
	tailSrc := simrand.New(200)
	for i := range tails {
		tails[i] = tailSrc.Normal(0, 1)
	}
	tails[17], tails[90], tails[3], tails[151] = -inf, -inf, inf, inf
	in["inf-tails"] = tails
	for _, n := range []int{2, 3, 12, 13, 100, 1000, 4097} {
		equal := make([]float64, n)
		asc := make([]float64, n)
		desc := make([]float64, n)
		pipe := make([]float64, n)
		few := make([]float64, n)
		normal := make([]float64, n)
		withNaN := make([]float64, n)
		src := simrand.New(uint64(n))
		for i := 0; i < n; i++ {
			equal[i] = 7
			asc[i] = float64(i)
			desc[i] = float64(n - i)
			pipe[i] = float64(min(i, n-1-i))
			few[i] = float64(src.Intn(4))
			normal[i] = src.Normal(100, 15)
			withNaN[i] = normal[i]
			if i%17 == 3 {
				withNaN[i] = nan
			}
		}
		in[fmt.Sprintf("equal-%d", n)] = equal
		in[fmt.Sprintf("sorted-%d", n)] = asc
		in[fmt.Sprintf("reversed-%d", n)] = desc
		in[fmt.Sprintf("organ-pipe-%d", n)] = pipe
		in[fmt.Sprintf("few-distinct-%d", n)] = few
		in[fmt.Sprintf("normal-%d", n)] = normal
		in[fmt.Sprintf("nan-sprinkled-%d", n)] = withNaN
	}
	return in
}

// TestSelectQuantileMatchesSort pins selection to the sorted answer,
// bit for bit, on every input shape at the edges and the middle of
// [0, 1] and at the p99 the traffic path asks.
func TestSelectQuantileMatchesSort(t *testing.T) {
	ps := []float64{0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}
	src := simrand.New(99)
	for i := 0; i < 8; i++ {
		ps = append(ps, src.Float64())
	}
	for name, xs := range selectInputs() {
		for _, p := range ps {
			checkSelect(t, name, xs, p)
		}
		checkSummary(t, name, xs)
	}
}

// TestSelectQuantileEdges pins the answers the edge inputs must give.
func TestSelectQuantileEdges(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"one-p0", []float64{3.5}, 0, 3.5},
		{"one-p1", []float64{3.5}, 1, 3.5},
		{"equal-p99", []float64{7, 7, 7, 7}, 0.99, 7},
		{"max", []float64{3, 9, 1}, 1, 9},
		{"min", []float64{3, 9, 1}, 0, 1},
		// h = 2 exactly: 3 + 0·(Inf−3) is NaN, as in QuantileSorted.
		{"inf-beside-frac0", []float64{inf, 1, inf, 3, 2}, 0.5, math.NaN()},
		{"inf-max-p1", []float64{inf, 1, 2}, 1, inf},
		{"nan-sorts-first", []float64{5, math.NaN(), 6}, 0, math.NaN()},
		{"nan-then-min", []float64{5, math.NaN(), 6}, 0.5, 5},
	}
	for _, c := range cases {
		got := Quantile(c.xs, c.p)
		if !sameQuantile(got, c.want, nil) {
			t.Errorf("%s: Quantile = %v, want %v", c.name, got, c.want)
		}
	}
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		if got := SelectQuantile([]float64{1, 2}, p); !math.IsNaN(got) {
			t.Errorf("SelectQuantile(p=%v) = %v, want NaN", p, got)
		}
	}
	if got := SelectQuantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("SelectQuantile(nil) = %v, want NaN", got)
	}
}

// TestSelectQuantileAllocs: SelectQuantile works in its buffer.
func TestSelectQuantileAllocs(t *testing.T) {
	xs := selectInputs()["normal-4097"]
	buf := make([]float64, len(xs))
	allocs := testing.AllocsPerRun(20, func() {
		copy(buf, xs)
		SelectQuantile(buf, 0.99)
	})
	if allocs != 0 {
		t.Errorf("SelectQuantile allocates %v times per call, want 0", allocs)
	}
}

// refSelectQuantile is SelectQuantile before its tail pass, verbatim:
// every order statistic gathers the NaNs and selects.
func refSelectQuantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 || p < 0 || p > 1 || math.IsNaN(p) {
		return math.NaN()
	}
	lo, frac, interp := quantileIndex(n, p)
	nans := gatherNaNs(xs)
	if lo < nans {
		return xs[lo]
	}
	rest := xs[nans:]
	k := lo - nans
	selectKth(rest, k)
	if !interp {
		return rest[k]
	}
	// Every element after position k sorts no earlier than rest[k], so
	// the next order statistic is their minimum.
	next := rest[k+1]
	for _, x := range rest[k+2:] {
		if x < next {
			next = x
		}
	}
	return rest[k] + frac*(next-rest[k])
}

// tailSizes returns the smallest and the largest n in [1, limit] whose
// p-quantile reads the order statistic m from the top (n-lo == m).
func tailSizes(p float64, m, limit int) []int {
	var ns []int
	for n := 1; n <= limit; n++ {
		if lo, _, _ := quantileIndex(n, p); n-lo == m {
			if len(ns) < 2 {
				ns = append(ns, n)
			} else {
				ns[1] = n
			}
		}
	}
	return ns
}

// TestSelectTailBoundary runs checkSelect on both sides of the tail
// pass's reach (n-lo of 1, 2, 31 and 32 take it, 33 does not), at the
// smallest and largest n of each reach, so the pass answers with the
// selecting path's bits, NaN payloads included (a NaN answer is the
// lo-th NaN in input order). The inputs carry NaN counts below, at and
// above lo, infinities at and around the kept ranks, ties, and equal
// values. The tail pass must leave its input as it is.
func TestSelectTailBoundary(t *testing.T) {
	inf := math.Inf(1)
	// nanN returns a NaN whose payload names i.
	nanN := func(i int) float64 { return math.Float64frombits(0x7ff8000000000000 | uint64(i+1)) }
	for _, p := range []float64{0.9, 0.99, 0.999, 1} {
		for _, m := range []int{1, 2, 31, 32, 33} {
			for _, n := range tailSizes(p, m, 40000) {
				lo, _, _ := quantileIndex(n, p)
				src := simrand.New(uint64(1000*m + n))
				draw := func(f func(i int) float64) []float64 {
					xs := make([]float64, n)
					for i := range xs {
						xs[i] = f(i)
					}
					return xs
				}
				normal := draw(func(int) float64 { return src.Normal(50, 10) })
				in := map[string][]float64{
					"normal":     normal,
					"ties":       draw(func(int) float64 { return float64(src.Intn(4)) }),
					"equal":      draw(func(int) float64 { return 7 }),
					"ascending":  draw(func(i int) float64 { return float64(i) }),
					"descending": draw(func(i int) float64 { return float64(n - i) }),
				}
				// NaN counts below, at and above lo, at random places.
				for _, nans := range []int{lo - 1, lo, lo + 1, lo + 2, n} {
					if nans < 0 || nans > n {
						continue
					}
					xs := slices.Clone(normal)
					for j, i := range src.Perm(n)[:nans] {
						xs[i] = nanN(j)
					}
					in[fmt.Sprintf("nans=%d", nans)] = xs
				}
				// +Inf at the kept ranks and around them, -Inf below.
				for _, infs := range []int{1, m - 1, m, m + 1} {
					if infs < 1 || infs >= n {
						continue
					}
					xs := slices.Clone(normal)
					perm := src.Perm(n)
					for _, i := range perm[:infs] {
						xs[i] = inf
					}
					xs[perm[infs]] = -inf
					in[fmt.Sprintf("infs=%d", infs)] = xs
				}
				for name, xs := range in {
					label := fmt.Sprintf("p=%v n=%d n-lo=%d %s", p, n, m, name)
					checkSelect(t, label, xs, p)
					buf := slices.Clone(xs)
					SelectQuantile(buf, p)
					if m <= maxTail && !slices.EqualFunc(buf, xs, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
						t.Errorf("%s: the tail pass reordered its input", label)
					}
				}
			}
		}
	}
}

// floatsFromBytes reads little-endian float64s, ignoring a short tail.
func floatsFromBytes(b []byte) []float64 {
	xs := make([]float64, len(b)/8)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return xs
}

func floatsToBytes(xs []float64) []byte {
	b := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// quantileSelectSeed is one committed fuzz seed.
type quantileSelectSeed struct {
	data []byte
	p    float64
}

// quantileSelectSeeds returns the seed corpus, keyed by committed file
// name: the property test's hard shapes, at the quantiles that probe
// them.
func quantileSelectSeeds() map[string]quantileSelectSeed {
	in := selectInputs()
	seed := func(name string, p float64) quantileSelectSeed {
		return quantileSelectSeed{data: floatsToBytes(in[name]), p: p}
	}
	return map[string]quantileSelectSeed{
		"seed-one-p0":           seed("one", 0),
		"seed-one-p1":           seed("one", 1),
		"seed-nans-inside":      seed("nans-inside", 0.5),
		"seed-nan-only":         seed("nan-only", 0.99),
		"seed-inf-at-frac0":     seed("inf-at-frac0", 0),
		"seed-infs-mid":         seed("infs-mid", 0.5),
		"seed-zeros-mixed":      seed("zeros-mixed", 0.5),
		"seed-equal":            seed("equal-100", 0.99),
		"seed-sorted":           seed("sorted-100", 0.99),
		"seed-reversed":         seed("reversed-100", 0.99),
		"seed-organ-pipe":       seed("organ-pipe-100", 0.75),
		"seed-few-distinct":     seed("few-distinct-100", 0.5),
		"seed-nan-sprinkled":    seed("nan-sprinkled-100", 0.1),
		"seed-short-tail-bytes": {data: append(floatsToBytes([]float64{2, 1}), 0xff, 0x01), p: 0.25},
		"seed-empty":            {data: nil, p: 0.5},
		// Inputs that probe the summary, which every input also checks.
		"seed-summary-nan-only":  seed("nan-only", 0.5),
		"seed-summary-one":       seed("one", 0.5),
		"seed-summary-two":       seed("two", 0.5),
		"seed-summary-three":     seed("three", 0.5),
		"seed-summary-four":      seed("four", 0.5),
		"seed-summary-five":      seed("five", 0.5),
		"seed-summary-ties":      seed("ties", 0.5),
		"seed-summary-inf-tails": seed("inf-tails", 0.99),
		// Tails, which a pass that keeps the largest values answers:
		// the NaN at lo (the 11th of 11), two infinities on the ranks
		// a p99 interpolates between, and at p = 0.75 the last size
		// inside the pass's reach and the first past it (n-lo of 32
		// and 33).
		"seed-tail-nan-at-lo":  {data: floatsToBytes(tailNaNAtLo()), p: 0.9},
		"seed-tail-infs":       {data: floatsToBytes(tailInfs()), p: 0.99},
		"seed-tail-reach":      {data: floatsToBytes(in["normal-1000"][:125]), p: 0.75},
		"seed-tail-past-reach": {data: floatsToBytes(in["normal-1000"][:126]), p: 0.75},
	}
}

// tailNaNAtLo returns 13 values, 11 of them NaNs with distinct
// payloads: the p90 (lo = 10) is the 11th NaN.
func tailNaNAtLo() []float64 {
	xs := []float64{4, 9}
	for i := 0; i < 11; i++ {
		xs = append(xs, math.Float64frombits(0x7ff8000000000000|uint64(i+1)))
	}
	xs[0], xs[6] = xs[6], xs[0]
	return xs
}

// tailInfs returns 40 values whose two largest are +Inf, the ranks the
// p99 (lo = 38) interpolates between.
func tailInfs() []float64 {
	xs := slices.Clone(selectInputs()["normal-100"][:40])
	xs[7], xs[29] = math.Inf(1), math.Inf(1)
	return xs
}

func FuzzQuantileSelect(f *testing.F) {
	seeds := quantileSelectSeeds()
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(seeds[name].data, seeds[name].p)
	}
	f.Fuzz(func(t *testing.T, data []byte, p float64) {
		xs := floatsFromBytes(data)
		checkSelect(t, "fuzz", xs, p)
		checkSummary(t, "fuzz", xs)
	})
}

// TestQuantileSelectSeedCorpusCommitted keeps the committed seed
// corpus (testdata/fuzz/FuzzQuantileSelect) in lockstep with the
// in-code seeds; run with -update to regenerate the files.
func TestQuantileSelectSeedCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzQuantileSelect")
	for name, s := range quantileSelectSeeds() {
		want := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s.data)) + ")\nfloat64(" + strconv.FormatFloat(s.p, 'g', -1, 64) + ")\n"
		path := filepath.Join(dir, name)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("seed %s is not committed (run with -update): %v", name, err)
		}
		if string(got) != want {
			t.Errorf("committed seed %s diverged from the in-code seed (run with -update)", name)
		}
	}
}
