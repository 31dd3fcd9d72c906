package store

// Fuzz target for the shard-data decoder — the bytes a campaignd
// coordinator accepts from workers over the network. The contract:
// DecodeShardData never panics on arbitrary input, accepted data
// satisfies every merge invariant (so MergeShards can trust it), and
// Encode∘Decode is a fixed point — recovery is idempotent.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"cloudvar/internal/trace"
	"cloudvar/internal/workload"
)

// validShardData builds a well-formed single-cell shard payload.
func validShardData(tb testing.TB) ShardData {
	tb.Helper()
	return ShardData{
		Manifest: Manifest{
			Schema:    6,
			RunID:     "s0",
			SpecKey:   "aa11",
			MatrixKey: "bb22",
			Spec: SpecIdentity{
				Schema:      2,
				Profiles:    []ProfileID{{Cloud: "ec2", Instance: "c5.xlarge", LineRateGbps: 10}},
				Regimes:     []trace.Regime{trace.FullSpeed},
				Repetitions: 2,
				Seed:        7,
				Confidence:  0.95,
				ErrorBound:  0.05,
			},
			CreatedUnix: 1754600000,
			Shard:       &ShardStamp{Index: 0, Count: 2},
		},
		Cells: []CellRecord{shardCell(tb, 0, nil)},
	}
}

// shardCell builds repetition rep of the valid shard's one matrix
// cell, optionally carrying workload metrics.
func shardCell(tb testing.TB, rep int, wl *workload.CellMetrics) CellRecord {
	tb.Helper()
	label := fmt.Sprintf("ec2/c5.xlarge/full-speed/rep%d", rep)
	s := trace.NewSeries(label, 10)
	for i, bw := range []float64{9.5, 9.4, 9.47} {
		if err := s.Append(trace.Point{TimeSec: float64(10 * i), BandwidthGbps: bw, RTTms: 0.2}); err != nil {
			tb.Fatal(err)
		}
	}
	return CellRecord{
		Schema: cellSchema(wl), Label: label,
		Cloud: "ec2", Instance: "c5.xlarge", Regime: "full-speed", Rep: rep,
		Series: s, Workload: wl,
	}
}

// encodeShardCount is ShardData.Encode with the cell count field
// forced to count, for bodies whose count and frames disagree.
func encodeShardCount(tb testing.TB, d ShardData, count uint64) []byte {
	tb.Helper()
	m, err := json.Marshal(d.Manifest)
	if err != nil {
		tb.Fatal(err)
	}
	b := binary.AppendUvarint(nil, uint64(len(m)))
	b = append(b, m...)
	b = binary.AppendUvarint(b, count)
	for _, rec := range d.Cells {
		if b, err = AppendCellFrame(b, rec); err != nil {
			tb.Fatal(err)
		}
	}
	return b
}

// shardSeeds returns the seed corpus, keyed by committed file name.
func shardSeeds(tb testing.TB) map[string][]byte {
	tb.Helper()
	encode := func(d ShardData) []byte {
		b, err := d.Encode()
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	valid := validShardData(tb)
	validBytes := encode(valid)
	unstamped := validShardData(tb)
	unstamped.Manifest.Shard = nil
	mislabeled := validShardData(tb)
	mislabeled.Cells[0].Rep = 1 // label now disagrees with its fields
	badStamp := validShardData(tb)
	badStamp.Manifest.Shard = &ShardStamp{Index: 9, Count: 2}
	badStamp.Cells = nil

	// Two cells, the second serving a two-client workload (one client
	// with an empty latency column).
	two := validShardData(tb)
	two.Cells = append(two.Cells, shardCell(tb, 1, &workload.CellMetrics{Clients: []workload.ClientMetrics{
		{ID: "chat", Class: "interactive", LatencyMs: []float64{1.5, 2.25, 40}},
		{ID: "batch", Class: "batch", LatencyMs: []float64{}},
	}}))
	twoBytes := encode(two)
	lastFrame, err := AppendCellFrame(nil, two.Cells[1])
	if err != nil {
		tb.Fatal(err)
	}

	// The first frame starts where the cell-less body ends; its CRC
	// follows the frame's length varint.
	frameStart := len(encodeShardCount(tb, ShardData{Manifest: valid.Manifest}, 1))
	_, lenBytes := binary.Uvarint(validBytes[frameStart:])
	flippedCRC := append([]byte{}, validBytes...)
	flippedCRC[frameStart+lenBytes] ^= 0x01

	return map[string][]byte{
		"seed-valid":          validBytes,
		"seed-workload":       twoBytes,
		"seed-unstamped":      encode(unstamped),
		"seed-mislabeled":     encode(mislabeled),
		"seed-bad-stamp":      encode(badStamp),
		"seed-truncated":      validBytes[:len(validBytes)/2],
		"seed-frame-boundary": twoBytes[:len(twoBytes)-len(lastFrame)],
		"seed-count-too-big":  encodeShardCount(tb, valid, 3),
		"seed-huge-count":     encodeShardCount(tb, valid, 1<<63),
		"seed-trailing-bytes": append(append([]byte{}, validBytes...), 0x00),
		"seed-flipped-crc":    flippedCRC,
		"seed-empty":          []byte(""),
		"seed-null":           []byte("null"),
		"seed-garbage":        []byte("not json\x00\xff"),
	}
}

func FuzzDecodeShardData(f *testing.F) {
	seeds := shardSeeds(f)
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(seeds[name])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// (1) Arbitrary bytes must never panic; errors are fine.
		d, err := DecodeShardData(data)
		if err != nil {
			return
		}
		// (2) Accepted data re-validates: Decode must not hand
		// MergeShards anything Validate would refuse.
		if err := d.Validate(); err != nil {
			t.Fatalf("decoded data fails validation: %v", err)
		}
		// (3) Idempotent recovery: Encode∘Decode is a fixed point.
		// (Frames carry every float bit-exactly, NaN included, and the
		// decoder refuses what the encoder cannot write, such as
		// over-long names, so decoded data always re-encodes.)
		enc1, err := d.Encode()
		if err != nil {
			t.Fatalf("decoded data does not re-encode: %v", err)
		}
		d2, err := DecodeShardData(enc1)
		if err != nil {
			t.Fatalf("re-encoded data does not decode: %v", err)
		}
		enc2, err := d2.Encode()
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatal("encode(decode(encode(d))) != encode(d): recovery is not idempotent")
		}
	})
}

// TestShardSeedCorpusCommitted keeps the committed seed corpus
// (testdata/fuzz/FuzzDecodeShardData) in lockstep with the in-code
// seeds; run with -update to regenerate the files.
func TestShardSeedCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeShardData")
	for name, data := range shardSeeds(t) {
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

// TestDecodeShardDataStrict pins the binary codec's strictness on the
// seed shapes: the valid bodies decode and re-encode to the same bytes,
// every other seed is refused, and so is every proper prefix of a
// valid body — truncation at any byte, frame boundaries included.
func TestDecodeShardDataStrict(t *testing.T) {
	seeds := shardSeeds(t)
	for name, data := range seeds {
		d, err := DecodeShardData(data)
		if name != "seed-valid" && name != "seed-workload" {
			if err == nil {
				t.Errorf("%s: decoded %d cells, want an error", name, len(d.Cells))
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		again, err := d.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Errorf("%s: decode then encode changed the bytes", name)
		}
		if cap(again) != len(again)+CellFrameHeadroom {
			t.Errorf("%s: Encode's %d-byte body sits in a %d-byte buffer: it was not sized up front", name, len(again), cap(again))
		}
		for n := 0; n < len(data); n++ {
			if _, err := DecodeShardData(data[:n]); err == nil {
				t.Fatalf("%s: the %d-byte prefix of a %d-byte body decoded", name, n, len(data))
			}
		}
	}
	d, err := DecodeShardData(seeds["seed-workload"])
	if err != nil {
		t.Fatal(err)
	}
	want := validShardData(t)
	want.Cells = append(want.Cells, shardCell(t, 1, &workload.CellMetrics{Clients: []workload.ClientMetrics{
		{ID: "chat", Class: "interactive", LatencyMs: []float64{1.5, 2.25, 40}},
		{ID: "batch", Class: "batch", LatencyMs: []float64{}},
	}}))
	got, _ := json.Marshal(d)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(got, wantJSON) {
		t.Errorf("workload shard changed across the wire codec:\n got %s\nwant %s", got, wantJSON)
	}
}
