package shard

// Fuzz target for the execute-response decoder — the bytes a
// coordinator accepts from a worker for every Execute call. The
// contract: decodeExecuteResponse never panics on arbitrary input,
// an accepted response holds exactly one result per requested cell,
// in order, each either an error or a series, and
// encode∘decode is a fixed point.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"cloudvar/internal/fleet"
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

func encodeResponse(tb testing.TB, results []fleet.CellResult) []byte {
	tb.Helper()
	b, err := appendExecuteResponse(nil, results)
	if err != nil {
		tb.Fatal(err)
	}
	return b
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
		results, err := decodeExecuteResponse(data, cells)
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
		enc1, err := appendExecuteResponse(nil, results)
		if err != nil {
			t.Fatalf("accepted answer does not re-encode: %v", err)
		}
		again, err := decodeExecuteResponse(enc1, cells)
		if err != nil {
			t.Fatalf("re-encoded answer does not decode: %v", err)
		}
		enc2, err := appendExecuteResponse(nil, again)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
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
		results, err := decodeExecuteResponse(data, cells)
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
