package shard

// Fuzz target for the execute-response decoder — the bytes a
// coordinator accepts from a worker for every Execute call. The
// contract: readExecuteResponse never panics on arbitrary input, it
// accepts and refuses what the byte-slice decoder it replaced does,
// however the bytes arrive, an accepted response holds exactly one
// result per requested cell, in order, each either an error or a
// series, and encode∘decode is a fixed point.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"
	"testing/iotest"

	"cloudvar/internal/fleet"
	"cloudvar/internal/frame"
	"cloudvar/internal/store"
	"cloudvar/internal/testutil"
	"cloudvar/internal/trace"
	"cloudvar/internal/workload"
)

var updateCorpus = flag.Bool("update", false, "rewrite the committed fuzz seed corpus under testdata/fuzz from the in-code seeds")

// wireCells are the two cells every execute-response seed answers.
func wireCells(tb testing.TB) []fleet.Cell {
	tb.Helper()
	return testutil.EC2Spec(tb, 7, 1).Cells()[:2]
}

// wireResults is a well-formed answer for wireCells: the first cell
// measured with a two-client workload, the second failed.
func wireResults(tb testing.TB) []fleet.CellResult {
	tb.Helper()
	cells := wireCells(tb)
	s := trace.NewSeries(cells[0].Label(), 10)
	for i, bw := range []float64{9.5, 9.4, 9.47} {
		if err := s.Append(trace.Point{TimeSec: float64(10 * i), BandwidthGbps: bw, Retransmissions: i, RTTms: 0.2, CPUFrac: 0.5}); err != nil {
			tb.Fatal(err)
		}
	}
	wl := &workload.CellMetrics{Clients: []workload.ClientMetrics{
		{ID: "chat", Class: "interactive", LatencyMs: []float64{1.5, 2.25}},
		{ID: "batch", Class: "batch", LatencyMs: []float64{}},
	}}
	return []fleet.CellResult{
		{Cell: cells[0], Series: s, Workload: wl},
		{Cell: cells[1], Err: errors.New("cloudmodel: injected cell failure")},
	}
}

// encodeResponse is the answer the worker's writer sends for results.
func encodeResponse(tb testing.TB, results []fleet.CellResult) []byte {
	tb.Helper()
	rec := httptest.NewRecorder()
	writeExecuteResponse(rec, results)
	if rec.Code != http.StatusOK {
		tb.Fatalf("writer answered %d: %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// refDecodeExecuteResponse and refReadWireString are the byte-slice
// decoder that read a whole execute answer before readExecuteResponse
// decoded it as it arrives, verbatim. FuzzDecodeExecuteResponse holds
// the stream decoder to them.

// refDecodeExecuteResponse decodes the answer to an execute request for
// cells: exactly one result per cell, in order, each naming its cell,
// and nothing after the last. Summaries are left to the caller, which
// knows the campaign's summary mode.
func refDecodeExecuteResponse(b []byte, cells []fleet.Cell) ([]fleet.CellResult, error) {
	n, off := binary.Uvarint(b)
	if off <= 0 {
		return nil, fmt.Errorf("malformed result count")
	}
	if n != uint64(len(cells)) {
		return nil, fmt.Errorf("%d results for %d cells", n, len(cells))
	}
	results := make([]fleet.CellResult, len(cells))
	for i, cell := range cells {
		if off >= len(b) {
			return nil, fmt.Errorf("truncated before result %d of %d", i, n)
		}
		tag := b[off]
		off++
		res := fleet.CellResult{Cell: cell}
		var label string
		switch tag {
		case 0:
			rec, m, err := refDecodeCellFrame(b[off:])
			if err != nil {
				return nil, fmt.Errorf("result %d: %w", i, err)
			}
			off += m
			label, res.Series, res.Workload = rec.Label, rec.Series, rec.Workload
		case 1:
			var msg string
			var err error
			if label, off, err = refReadWireString(b, off); err != nil {
				return nil, fmt.Errorf("result %d label: %w", i, err)
			}
			if msg, off, err = refReadWireString(b, off); err != nil {
				return nil, fmt.Errorf("result %d error: %w", i, err)
			}
			res.Err = errors.New(msg)
		default:
			return nil, fmt.Errorf("result %d has tag %d, want 0 (frame) or 1 (error)", i, tag)
		}
		if want := cell.Label(); label != want {
			return nil, fmt.Errorf("result %d is cell %s, want %s", i, label, want)
		}
		results[i] = res
	}
	if off != len(b) {
		return nil, fmt.Errorf("%d trailing bytes after %d results", len(b)-off, n)
	}
	return results, nil
}

// refDecodeCellFrame decodes the complete frame at the start of b and
// returns its record and the frame's length: a frame cut short
// anywhere, a length over frame.MaxPayload, a CRC mismatch or a payload
// store.DecodeCellPayload refuses is an error.
func refDecodeCellFrame(b []byte) (store.CellRecord, int, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > frame.MaxPayload {
		return store.CellRecord{}, 0, fmt.Errorf("malformed frame length")
	}
	if uint64(len(b)-k) < 4+n {
		return store.CellRecord{}, 0, fmt.Errorf("frame truncated: %d bytes hold no complete frame", len(b))
	}
	payload := b[k+4 : k+4+int(n)]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(b[k:]); got != want {
		return store.CellRecord{}, 0, fmt.Errorf("crc %08x != recorded %08x", got, want)
	}
	rec, err := store.DecodeCellPayload(payload)
	return rec, k + 4 + int(n), err
}

func refReadWireString(b []byte, off int) (string, int, error) {
	n, k := binary.Uvarint(b[off:])
	if k <= 0 {
		return "", 0, fmt.Errorf("malformed length at offset %d", off)
	}
	off += k
	// Compare in uint64 space: int(n) of a length >= 2^63 is negative.
	if n > uint64(len(b)-off) {
		return "", 0, fmt.Errorf("string of %d bytes at offset %d exceeds the body", n, off)
	}
	return string(b[off : off+int(n)]), off + int(n), nil
}

// streamFeeds are the ways an answer's bytes reach the stream decoder:
// whole, a byte per read, half of what each read asks, and the last
// bytes with io.EOF.
var streamFeeds = []struct {
	name string
	feed func(b []byte) io.Reader
}{
	{"whole", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"one-byte", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
	{"half", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }},
	{"data-err", func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) }},
}

// matchStream decodes data through readExecuteResponse from every feed,
// with its length declared and undeclared, and fails unless each decode
// refuses what the reference refuses and accepts what it accepts, with
// results that re-encode to the same bytes: labels, errors, and every
// float of series and workloads bit for bit.
func matchStream(t *testing.T, data []byte, cells []fleet.Cell, want []fleet.CellResult, wantErr error) {
	t.Helper()
	var wantBytes []byte
	if wantErr == nil {
		wantBytes = encodeResponse(t, want)
	}
	for _, f := range streamFeeds {
		for _, declared := range []int64{int64(len(data)), -1} {
			got, err := readExecuteResponse(f.feed(data), declared, cells)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s feed, declared %d: stream error %v, reference %v", f.name, declared, err, wantErr)
			}
			if err != nil {
				continue
			}
			if gotBytes := encodeResponse(t, got); !bytes.Equal(gotBytes, wantBytes) {
				t.Fatalf("%s feed, declared %d: the stream decoded other results than the reference", f.name, declared)
			}
		}
	}
}

// executeResponseSeeds returns the seed corpus, keyed by committed
// file name: a valid answer, its truncations, count and label
// disagreements, corruption, and the JSON body an older worker sends.
func executeResponseSeeds(tb testing.TB) map[string][]byte {
	tb.Helper()
	results := wireResults(tb)
	valid := encodeResponse(tb, results)
	first := encodeResponse(tb, results[:1])
	swapped := encodeResponse(tb, []fleet.CellResult{results[1], results[0]})

	// The first result's frame starts after the count and its tag; its
	// CRC follows the frame's length varint.
	frameStart := 2
	_, lenBytes := binary.Uvarint(valid[frameStart:])
	flippedCRC := append([]byte{}, valid...)
	flippedCRC[frameStart+lenBytes] ^= 0x01

	// Two results claimed, only the first present: cut at the result
	// boundary.
	boundary := append(binary.AppendUvarint(nil, 2), first[1:]...)
	// Three results claimed for two cells, all three present.
	tooMany := append(binary.AppendUvarint(nil, 3), valid[1:]...)
	tooMany = append(tooMany, valid[len(first):]...)
	huge := append(binary.AppendUvarint(nil, 1<<63), valid[1:]...)
	hugeString := binary.AppendUvarint(append(binary.AppendUvarint(nil, 2), 1), 1<<63)

	return map[string][]byte{
		"seed-valid":          valid,
		"seed-truncated":      valid[:len(valid)/2],
		"seed-frame-boundary": boundary,
		"seed-count-too-big":  tooMany,
		"seed-huge-count":     huge,
		"seed-huge-string":    hugeString,
		"seed-wrong-label":    swapped,
		"seed-bad-tag":        append([]byte{2, 7}, valid[2:]...),
		"seed-flipped-crc":    flippedCRC,
		"seed-trailing-bytes": append(append([]byte{}, valid...), 0x00),
		"seed-empty":          []byte(""),
		"seed-json":           []byte(`{"results":[{"label":"ec2/c5.xlarge/full-speed/rep0","series":{"interval_sec":10,"label":"x","points":[]}}]}`),
	}
}

func FuzzDecodeExecuteResponse(f *testing.F) {
	seeds := executeResponseSeeds(f)
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(seeds[name])
	}
	cells := wireCells(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		// (1) Arbitrary bytes must never panic; errors are fine.
		results, err := refDecodeExecuteResponse(data, cells)
		// (4) The stream decoder refuses exactly what the reference
		// refuses, however the bytes arrive, and otherwise decodes the
		// same results.
		matchStream(t, data, cells, results, err)
		if err != nil {
			return
		}
		// (2) An accepted answer is one result per cell, in order,
		// each an error or a series — never both, never neither.
		if len(results) != len(cells) {
			t.Fatalf("%d results for %d cells", len(results), len(cells))
		}
		for i, res := range results {
			if res.Cell.Label() != cells[i].Label() {
				t.Fatalf("result %d is cell %s, want %s", i, res.Cell.Label(), cells[i].Label())
			}
			if (res.Err == nil) == (res.Series == nil) {
				t.Fatalf("result %d: err %v with series %v", i, res.Err, res.Series)
			}
		}
		// (3) Idempotent recovery: encode∘decode is a fixed point.
		enc1 := encodeResponse(t, results)
		again, err := readExecuteResponse(bytes.NewReader(enc1), int64(len(enc1)), cells)
		if err != nil {
			t.Fatalf("re-encoded answer does not decode: %v", err)
		}
		enc2 := encodeResponse(t, again)
		if !bytes.Equal(enc1, enc2) {
			t.Fatal("encode(decode(encode(r))) != encode(r): recovery is not idempotent")
		}
	})
}

// TestExecuteResponseShapes pins the decoder on the seed shapes: the
// valid answer round-trips to the same results, and every other seed
// is refused.
func TestExecuteResponseShapes(t *testing.T) {
	cells := wireCells(t)
	for name, data := range executeResponseSeeds(t) {
		results, err := readExecuteResponse(bytes.NewReader(data), int64(len(data)), cells)
		if name != "seed-valid" {
			if err == nil {
				t.Errorf("%s: decoded %d results, want an error", name, len(results))
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := wireResults(t)
		if results[1].Err == nil || results[1].Err.Error() != want[1].Err.Error() {
			t.Errorf("error result decoded as %v, want %v", results[1].Err, want[1].Err)
		}
		got, err := store.NewCellRecord(results[0])
		if err != nil {
			t.Fatal(err)
		}
		wantRec, err := store.NewCellRecord(want[0])
		if err != nil {
			t.Fatal(err)
		}
		a, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(wantRec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("measured result changed across the wire:\n got %s\nwant %s", a, b)
		}
	}
}

// TestExecuteResponseSeedCorpusCommitted keeps the committed seed
// corpus (testdata/fuzz/FuzzDecodeExecuteResponse) in lockstep with
// the in-code seeds; run with -update to regenerate the files.
func TestExecuteResponseSeedCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeExecuteResponse")
	for name, data := range executeResponseSeeds(t) {
		want := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
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
