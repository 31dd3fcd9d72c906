package store

// Differential tests for the column kernels (appendDeltas,
// decodeDeltas, skipDeltas and the chunked column walk over them):
// encoding/binary is the oracle, so every byte written and every input
// accepted or refused must be exactly what a binary.AppendVarint /
// binary.Varint loop writes, accepts or refuses.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cloudvar/internal/simrand"
	"cloudvar/internal/trace"
)

// oracleEncode is the column coding as a binary.AppendVarint loop: the
// varint of each word's wrapping difference from the one before it.
func oracleEncode(dst []byte, words []uint64) []byte {
	prev := uint64(0)
	for _, w := range words {
		dst = binary.AppendVarint(dst, int64(w-prev))
		prev = w
	}
	return dst
}

// oracleDecode reads n words from b as a binary.Varint loop. It returns
// the words read, the offset past the last varint read (on error, the
// offset of the refused one) and the error the column reader must
// report.
func oracleDecode(b []byte, n int) ([]uint64, int, error) {
	words := make([]uint64, 0, n)
	off, prev := 0, uint64(0)
	for i := 0; i < n; i++ {
		d, m := binary.Varint(b[off:])
		switch {
		case m == 0:
			return words, off, fmt.Errorf("truncated varint at offset %d", off)
		case m < 0:
			return words, off, fmt.Errorf("overflowing varint at offset %d", off)
		}
		off += m
		prev += uint64(d)
		words = append(words, prev)
	}
	return words, off, nil
}

// latencyWords is a column of words as latency values, bit for bit.
func latencyWords(words []uint64) []float64 {
	lat := make([]float64, len(words))
	for i, w := range words {
		lat[i] = math.Float64frombits(w)
	}
	return lat
}

// checkColumn decodes n latencies from b with the column reader and
// compares the values, the end offset and the error with the oracle's,
// then checks the skip kernel against the oracle too. It returns the
// decoded words when both accept b.
func checkColumn(t *testing.T, b []byte, n int) []uint64 {
	t.Helper()
	want, wantOff, wantErr := oracleDecode(b, n)
	checkSkip(t, b, n, wantOff, wantErr)
	lat := make([]float64, n)
	r := &colReader{b: b}
	err := r.column(column{field: floatsField, floats: lat})
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("decoding %d values from % x: kernel error %v, encoding/binary %v", n, b, err, wantErr)
	}
	if r.off != wantOff {
		t.Fatalf("decoding %d values from % x: kernel stopped at offset %d, encoding/binary at %d", n, b, r.off, wantOff)
	}
	if err != nil {
		return nil
	}
	for i, v := range lat {
		if math.Float64bits(v) != want[i] {
			t.Fatalf("value %d: kernel %#x, encoding/binary %#x", i, math.Float64bits(v), want[i])
		}
	}
	return want
}

// checkSkip steps over n varints of b with the skip kernel, in one
// call and in two calls split at a few counts (every count for short
// columns), and requires the end offset and error of a binary.Varint
// loop: wantOff and wantErr.
func checkSkip(t *testing.T, b []byte, n, wantOff int, wantErr error) {
	t.Helper()
	splits := []int{0, 1, n / 2, n - 1, n}
	if n <= 16 {
		splits = splits[:0]
		for k := 0; k <= n; k++ {
			splits = append(splits, k)
		}
	}
	for _, k := range splits {
		off, err := skipDeltas(b, 0, k)
		if err == nil {
			off, err = skipDeltas(b, off, n-k)
		}
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("skipping %d+%d values of % x: kernel error %v, encoding/binary %v", k, n-k, b, err, wantErr)
		}
		if off != wantOff {
			t.Fatalf("skipping %d+%d values of % x: kernel stopped at offset %d, encoding/binary at %d", k, n-k, b, off, wantOff)
		}
	}
}

// checkEncode encodes words as a latency column into a buffer of
// exactly the oracle's length, then into buffers with a prefix and
// every small amount of spare capacity, and requires the oracle's
// bytes, columnLen's length, and no growth of the exact buffer.
func checkEncode(t *testing.T, words []uint64) []byte {
	t.Helper()
	want := oracleEncode(nil, words)
	c := column{field: floatsField, floats: latencyWords(words)}
	if n := columnLen(c); n != len(want) {
		t.Fatalf("columnLen = %d, encoding/binary writes %d bytes", n, len(want))
	}
	for spare := 0; spare <= 9; spare++ {
		prefix := []byte{0xaa, 0xbb, 0xcc}
		dst := append(make([]byte, 0, len(prefix)+len(want)+spare), prefix...)
		got := appendColumn(dst, c)
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("spare %d: kernel wrote % x, encoding/binary % x", spare, got[len(prefix):], want)
		}
		if cap(got) != cap(dst) {
			t.Fatalf("spare %d: a buffer sized to the column grew from %d to %d bytes", spare, cap(dst), cap(got))
		}
	}
	if got := appendColumn(nil, c); !bytes.Equal(got, want) {
		t.Fatalf("into a nil buffer: kernel wrote % x, encoding/binary % x", got, want)
	}
	return want
}

// boundaryDeltas are the wrapping differences whose zigzag forms sit at
// every varint length boundary (2^(7k) and its neighbours), plus 0, ±1
// and the int64 extremes.
func boundaryDeltas() []uint64 {
	unzigzag := func(u uint64) uint64 { return u>>1 ^ -(u & 1) }
	ds := []uint64{0, 1, math.MaxUint64, 1 << 63, math.MaxInt64}
	for k := 1; k <= 9; k++ {
		edge := uint64(1) << (7 * k)
		for _, u := range []uint64{edge - 1, edge, edge + 1} {
			ds = append(ds, unzigzag(u))
		}
	}
	return append(ds, unzigzag(math.MaxUint64), unzigzag(math.MaxUint64-1))
}

// wordsOf accumulates deltas into the column words that have them.
func wordsOf(deltas []uint64) []uint64 {
	words := make([]uint64, len(deltas))
	prev := uint64(0)
	for i, d := range deltas {
		prev += d
		words[i] = prev
	}
	return words
}

func TestDeltaKernelsBoundaries(t *testing.T) {
	deltas := boundaryDeltas()
	// Each boundary alone, so it is the first and last varint of its
	// column, then all of them in one column and in reverse.
	for _, d := range deltas {
		enc := checkEncode(t, wordsOf([]uint64{d}))
		if got := checkColumn(t, enc, 1); got == nil || got[0] != d {
			t.Fatalf("delta %#x did not round-trip: % x", d, enc)
		}
	}
	rev := slices.Clone(deltas)
	slices.Reverse(rev)
	for _, ds := range [][]uint64{deltas, rev} {
		words := wordsOf(ds)
		enc := checkEncode(t, words)
		got := checkColumn(t, enc, len(words))
		for i := range words {
			if got[i] != words[i] {
				t.Fatalf("word %d: decoded %#x, encoded %#x", i, got[i], words[i])
			}
		}
	}
}

// TestDeltaKernelNonMinimal: inputs encoding/binary accepts but never
// writes (padded varints, 9- and 10-byte forms), and 10-byte varints it
// refuses, decode and are skipped exactly as it decodes them, wherever
// they sit relative to the end of the payload and to the skip kernel's
// 8-byte stride.
func TestDeltaKernelNonMinimal(t *testing.T) {
	pad := func(n int, last byte) []byte {
		return append(bytes.Repeat([]byte{0x80}, n), last)
	}
	cases := map[string][]byte{ // named for the reader; failures print the bytes
		"two-byte zero":           {0x80, 0x00},
		"padded one":              {0x81, 0x80, 0x00},
		"eight-byte zero":         pad(7, 0x00),
		"nine-byte zero":          pad(8, 0x00),
		"nine-byte max":           append(bytes.Repeat([]byte{0xff}, 8), 0x7f),
		"ten-byte zero":           pad(9, 0x00),
		"ten-byte top bit":        pad(9, 0x01),
		"ten-byte max":            append(bytes.Repeat([]byte{0xff}, 9), 0x01),
		"ten-byte overflow":       pad(9, 0x02),
		"ten-byte overflow max":   append(bytes.Repeat([]byte{0xff}, 9), 0x7f),
		"eleven bytes":            append(bytes.Repeat([]byte{0xff}, 10), 0x00),
		"unterminated ten bytes":  bytes.Repeat([]byte{0x80}, 10),
		"unterminated nine bytes": bytes.Repeat([]byte{0x80}, 9),
	}
	for _, v := range cases {
		for lead := 0; lead <= 9; lead++ {
			for trail := 0; trail <= 9; trail++ {
				b := append(bytes.Repeat([]byte{0x02}, lead), v...)
				b = append(b, bytes.Repeat([]byte{0x04}, trail)...)
				checkColumn(t, b, lead+1)
				checkColumn(t, b, lead+2)
			}
		}
	}
}

// TestDeltaKernelTruncation: a column cut at every byte is refused as
// encoding/binary refuses it, at the same offset and with the same
// message, and never panics.
func TestDeltaKernelTruncation(t *testing.T) {
	words := wordsOf(boundaryDeltas())
	enc := checkEncode(t, words)
	for cut := 0; cut < len(enc); cut++ {
		checkColumn(t, enc[:cut], len(words))
	}
}

// randomWords draws n words of mixed delta widths, from a smooth
// series to raw 64-bit noise.
func randomWords(src *simrand.Source, n int) []uint64 {
	words := make([]uint64, n)
	prev := uint64(0)
	for i := range words {
		d := src.Uint64() >> (src.Uint64() % 64)
		if src.Uint64()&1 == 0 {
			d = -d
		}
		prev += d
		words[i] = prev
	}
	return words
}

// TestDeltaKernelChunkEdges: columns one value short of, at, and past
// the chunk size code exactly as encoding/binary does, for latencies
// and for every series field, and columns that end fewer than 8 bytes
// before the end of the payload decode the same as any other.
func TestDeltaKernelChunkEdges(t *testing.T) {
	src := simrand.New(15)
	for _, n := range []int{0, 1, deltaChunk - 1, deltaChunk, deltaChunk + 1, 2*deltaChunk + 1} {
		words := randomWords(src, n)
		enc := checkEncode(t, words)
		for trail := 0; trail <= 8; trail++ {
			b := append(append([]byte(nil), enc...), bytes.Repeat([]byte{0x7f}, trail)...)
			got := checkColumn(t, b, n)
			if len(got) != n {
				t.Fatalf("n=%d trail=%d: decoded %d values", n, trail, len(got))
			}
		}

		// The series fields share the kernels through gather and
		// scatter: each field's column is the oracle's coding of its
		// words, and decodes back into that field alone.
		pts := make([]trace.Point, n)
		for f := range pointFields {
			c := column{field: f, pts: pts}
			vals := randomWords(src, n)
			if f == retransmissionsField {
				// The field is an int, which keeps only a word's low
				// half, sign-extended, where int has 32 bits.
				for i, w := range vals {
					vals[i] = uint64(int(w))
				}
			}
			c.scatter(vals, 0)
			want := oracleEncode(nil, vals)
			if got := appendColumn(nil, c); !bytes.Equal(got, want) {
				t.Fatalf("n=%d %s: kernel and encoding/binary disagree", n, pointFields[f])
			}
			if l := columnLen(c); l != len(want) {
				t.Fatalf("n=%d %s: columnLen %d, encoding is %d bytes", n, pointFields[f], l, len(want))
			}
			back := make([]trace.Point, n)
			r := &colReader{b: want}
			if err := r.column(column{field: f, pts: back}); err != nil || r.off != len(want) {
				t.Fatalf("n=%d %s: decoded to offset %d of %d: %v", n, pointFields[f], r.off, len(want), err)
			}
			got := make([]uint64, n)
			column{field: f, pts: back}.gather(got, 0)
			for i := range got {
				if got[i] != vals[i] {
					t.Fatalf("n=%d %s: value %d decoded %#x, want %#x", n, pointFields[f], i, got[i], vals[i])
				}
			}
		}
	}
}

// TestOverflowingVarintInCompleteFrame: a CRC-valid frame holding a
// 10-byte varint that overflows 64 bits is refused with an error that
// names the overflow, the column and the offset — in a column and in a
// header field alike — rather than calling it truncated.
func TestOverflowingVarintInCompleteFrame(t *testing.T) {
	overflow := append(bytes.Repeat([]byte{0xff}, 9), 0x02)
	var p []byte
	p = binary.AppendUvarint(p, 2) // schema
	for _, s := range []string{"x/rep0", "ec2", "c5.xlarge", "full-speed"} {
		p = appendString(p, s)
	}
	p = binary.AppendUvarint(p, 0) // rep
	p = appendString(p, "x/rep0")
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(10))
	p = binary.AppendUvarint(p, 1) // one point
	at := len(p)
	col := append(append([]byte(nil), p...), overflow...)
	col = append(col, 0, 0, 0, 0, 0) // the other four columns and the workload flag
	_, _, err := DecodeCellFrame(appendFrame(nil, col))
	if want := fmt.Sprintf("time column: overflowing varint at offset %d", at); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("DecodeCellFrame error = %v, want it to contain %q", err, want)
	}

	hdr := append(append([]byte(nil), overflow...), 0)
	_, _, err = DecodeCellFrame(appendFrame(nil, hdr))
	if want := "schema: overflowing uvarint at offset 0"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("DecodeCellFrame error = %v, want it to contain %q", err, want)
	}
}

// deltaSeed is one FuzzDeltaColumn input: column bytes and how many
// values to decode from them.
type deltaSeed struct {
	data  []byte
	count uint16
}

// deltaSeeds is FuzzDeltaColumn's named seed corpus, committed under
// testdata/fuzz/FuzzDeltaColumn and kept in lockstep by
// TestDeltaSeedCorpusCommitted.
func deltaSeeds(tb testing.TB) map[string]deltaSeed {
	tb.Helper()
	chunk := oracleEncode(nil, randomWords(simrand.New(3), deltaChunk+1))
	boundaries := oracleEncode(nil, wordsOf(boundaryDeltas()))
	return map[string]deltaSeed{
		"seed-empty":              {nil, 0},
		"seed-one-zero":           {[]byte{0x00}, 1},
		"seed-truncated":          {[]byte{0x80}, 1},
		"seed-padded-zero":        {[]byte{0x80, 0x80, 0x00, 0x02}, 2},
		"seed-nine-byte":          {append(bytes.Repeat([]byte{0xff}, 8), 0x7f), 1},
		"seed-nine-byte-straddle": {append(append(bytes.Repeat([]byte{0x02}, 5), bytes.Repeat([]byte{0x81}, 8)...), 0x01, 0x02, 0x04), 8},
		"seed-ten-byte":           {append(bytes.Repeat([]byte{0xff}, 9), 0x01), 1},
		"seed-ten-byte-overflow":  {append(bytes.Repeat([]byte{0x80}, 9), 0x02), 1},
		"seed-boundaries":         {boundaries, uint16(len(boundaryDeltas()))},
		"seed-chunk-plus-one":     {chunk, deltaChunk + 1},
		"seed-short-tail":         {append(append([]byte(nil), chunk...), 0x01, 0x02, 0x03), deltaChunk + 1},
		"seed-count-past-end":     {[]byte{0x02, 0x04, 0x06}, 4},
	}
}

// FuzzDeltaColumn checks the column reader and writer against
// encoding/binary on arbitrary bytes:
//
//  1. Decoding count values agrees with a binary.Varint loop on the
//     values, the end offset, and whether (and why) it fails; so does
//     skipping them, on the end offset and the error.
//  2. An accepted column re-encodes to the bytes a binary.AppendVarint
//     loop writes, into any buffer and without growing one sized to
//     it, and columnLen is their length.
//  3. Those bytes decode back to the same values, ending exactly at
//     their end.
func FuzzDeltaColumn(f *testing.F) {
	seeds := deltaSeeds(f)
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(seeds[name].data, seeds[name].count)
	}
	f.Fuzz(func(t *testing.T, data []byte, count uint16) {
		n := int(count) % (4 * deltaChunk)
		words := checkColumn(t, data, n) // (1)
		if words == nil {
			return
		}
		enc := checkEncode(t, words) // (2)
		back := checkColumn(t, enc, n)
		for i := range words { // (3)
			if back[i] != words[i] {
				t.Fatalf("value %d: %#x re-decoded as %#x", i, words[i], back[i])
			}
		}
	})
}

// TestDeltaSeedCorpusCommitted keeps testdata/fuzz/FuzzDeltaColumn in
// lockstep with deltaSeeds, as TestColumnarSeedCorpusCommitted does for
// its target. Run with -update to regenerate the files.
func TestDeltaSeedCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDeltaColumn")
	for name, s := range deltaSeeds(t) {
		want := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s.data)) + ")\nuint16(" + strconv.Itoa(int(s.count)) + ")\n"
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
