package store

// In-package tests for the columnar codec: like fuzz_test.go they
// drive the recovery seam (truncateTornFrames) and the raw
// encode/decode layer directly, which package store_test cannot reach.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cloudvar/internal/fleet"
	"cloudvar/internal/trace"
	"cloudvar/internal/workload"
)

// columnarFuzzStore builds a store with one columnar run whose
// cells.col holds exactly data, bypassing the writer.
func columnarFuzzStore(t *testing.T, data []byte) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	runDir := filepath.Join(dir, "runs", "r1")
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		t.Fatal(err)
	}
	m, err := json.Marshal(Manifest{Schema: 4, RunID: "r1", Encoding: EncodingColumnar})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(runDir, "manifest.json"), m, 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(runDir, "cells.col")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return st, path
}

// columnarRecords builds the adversarial record set the codec must
// round-trip bit-exactly: smooth series, NaN/Inf-laced floats,
// negative and huge values, empty series, and a workload blob.
func columnarRecords(t *testing.T) []CellRecord {
	t.Helper()
	mk := func(label string, pts []trace.Point, wl *workload.CellMetrics) CellRecord {
		s := trace.NewSeries(label, 10)
		s.Points = pts
		return CellRecord{
			Schema: cellSchema(wl), Label: label,
			Cloud: "ec2", Instance: "c5.xlarge", Regime: "full-speed",
			Series: s, Workload: wl,
		}
	}
	return []CellRecord{
		mk("smooth/rep0", []trace.Point{
			{TimeSec: 0, BandwidthGbps: 9.43, Retransmissions: 2, RTTms: 0.21, CPUFrac: 0.5},
			{TimeSec: 10, BandwidthGbps: 9.44, Retransmissions: 0, RTTms: 0.22, CPUFrac: 0.52},
			{TimeSec: 20, BandwidthGbps: 9.41, Retransmissions: 7, RTTms: 0.2, CPUFrac: 0.49},
		}, nil),
		mk("hostile/rep0", []trace.Point{
			{TimeSec: math.NaN(), BandwidthGbps: math.Inf(1), Retransmissions: -3, RTTms: math.Inf(-1), CPUFrac: math.Float64frombits(0x7ff8000000000001)},
			{TimeSec: -0.0, BandwidthGbps: math.MaxFloat64, Retransmissions: math.MaxInt32, RTTms: math.SmallestNonzeroFloat64, CPUFrac: -1e308},
		}, nil),
		mk("empty/rep0", nil, nil),
		mk("served/rep0", []trace.Point{
			{TimeSec: 0, BandwidthGbps: 1},
		}, &workload.CellMetrics{Clients: []workload.ClientMetrics{{ID: "chat", Class: "interactive", LatencyMs: []float64{1.5, 2.25}}}}),
	}
}

func encodeAll(t *testing.T, recs []CellRecord) []byte {
	t.Helper()
	var buf []byte
	var err error
	for _, rec := range recs {
		if buf, err = AppendCellFrame(buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// TestCellFrameLenExact: CellFrameLen is the length AppendCellFrame
// appends, for every record shape — hostile floats, nil and empty
// workload slices, latency columns whose deltas need every varint
// width — and a buffer sized by it plus CellFrameHeadroom takes the
// frames without growing, which is how ShardData.Encode sizes its body.
func TestCellFrameLenExact(t *testing.T) {
	recs := columnarRecords(t)
	wide := make([]float64, 0, 64)
	for i := 0; i < 64; i++ {
		wide = append(wide, math.Float64frombits(uint64(1)<<i))
	}
	for i, wl := range []*workload.CellMetrics{
		{},
		{Clients: []workload.ClientMetrics{}},
		{Clients: []workload.ClientMetrics{{ID: "nil"}, {ID: "empty", Class: "c", LatencyMs: []float64{}}}},
		{Clients: []workload.ClientMetrics{{ID: "wide", Class: strings.Repeat("x", 200), LatencyMs: wide}}},
		{Clients: []workload.ClientMetrics{{ID: "nan", LatencyMs: []float64{math.NaN(), math.Inf(-1), -0.0, 1e-300}}}},
	} {
		rec := recs[0]
		rec.Label = fmt.Sprintf("workload-%d/rep%d", i, i*1000)
		rec.Rep = i * 1000
		rec.Schema = cellSchema(wl)
		rec.Workload = wl
		recs = append(recs, rec)
	}
	total := 0
	for _, rec := range recs {
		frame, err := AppendCellFrame(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		if got := CellFrameLen(rec); got != len(frame) {
			t.Errorf("%s: CellFrameLen = %d, frame is %d bytes", rec.Label, got, len(frame))
		}
		total += len(frame)
	}
	buf := make([]byte, 0, total+CellFrameHeadroom)
	for _, rec := range recs {
		var err error
		if buf, err = AppendCellFrame(buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	if len(buf) != total || cap(buf) != total+CellFrameHeadroom {
		t.Errorf("frames grew their sized buffer: len %d cap %d, sized %d+%d", len(buf), cap(buf), total, CellFrameHeadroom)
	}
}

// TestColumnarRoundTrip: encode → decode → re-encode is byte-identical
// (bit-exact floats, NaN payloads included), and decoded records match
// the originals field by field under the JSON codec's equality.
func TestColumnarRoundTrip(t *testing.T) {
	recs := columnarRecords(t)
	buf := encodeAll(t, recs)
	got, err := readCellsColumnar(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	if again := encodeAll(t, got); !bytes.Equal(buf, again) {
		t.Fatal("encode(decode(encode(recs))) != encode(recs): codec is not a bijection on its own output")
	}
	for i := range recs {
		// JSON can't carry NaN/Inf — compare the hostile record through
		// the columnar encoding itself, the others through JSON too.
		if got[i].Label != recs[i].Label || got[i].Rep != recs[i].Rep || got[i].Schema != recs[i].Schema {
			t.Fatalf("record %d identity changed: %+v", i, got[i])
		}
		if recs[i].Label == "hostile/rep0" {
			for j, p := range recs[i].Series.Points {
				q := got[i].Series.Points[j]
				for _, f := range []struct{ a, b float64 }{
					{p.TimeSec, q.TimeSec}, {p.BandwidthGbps, q.BandwidthGbps},
					{p.RTTms, q.RTTms}, {p.CPUFrac, q.CPUFrac},
				} {
					if math.Float64bits(f.a) != math.Float64bits(f.b) {
						t.Fatalf("point %d: float bits changed: %x -> %x", j, math.Float64bits(f.a), math.Float64bits(f.b))
					}
				}
				if p.Retransmissions != q.Retransmissions {
					t.Fatalf("point %d: retransmissions %d -> %d", j, p.Retransmissions, q.Retransmissions)
				}
			}
			continue
		}
		a, _ := json.Marshal(recs[i])
		b, _ := json.Marshal(got[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("record %d changed across round-trip:\n%s\n%s", i, a, b)
		}
	}
}

// appendFrame frames a raw payload (length header + CRC) onto dst, for
// hand-built frames the encoder would never write.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// hostileLengthFrames builds CRC-valid frames whose payloads claim
// absurd element counts: a uvarint >= 2^63 wraps negative through a
// bare int() conversion, so a guard comparing in int space would admit
// it and panic in make() or a slice expression. These frames must
// decode to an error, never a panic.
func hostileLengthFrames(tb testing.TB) map[string][]byte {
	tb.Helper()
	str := func(b []byte, s string) []byte {
		b = binary.AppendUvarint(b, uint64(len(s)))
		return append(b, s...)
	}
	// Everything up to (not including) the npoints field, well-formed.
	prefix := func() []byte {
		var p []byte
		p = binary.AppendUvarint(p, 2) // schema
		for _, s := range []string{"x/rep0", "ec2", "c5.xlarge", "full-speed"} {
			p = str(p, s)
		}
		p = binary.AppendUvarint(p, 0)                                // rep
		p = str(p, "x/rep0")                                          // series label
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(10)) // interval
		return p
	}
	npoints := binary.AppendUvarint(prefix(), 1<<63)
	wl := binary.AppendUvarint(prefix(), 0) // empty series
	wl = append(wl, 1)                      // flag 1: JSON workload blob
	wl = binary.AppendUvarint(wl, 1<<63)    // huge blob length
	// Flag-2 workloads: every count is a ulen (n+1), so 1<<63+1 claims
	// 2^63 elements.
	cols := func() []byte {
		return append(binary.AppendUvarint(prefix(), 0), 2) // empty series, flag 2
	}
	clients := binary.AppendUvarint(cols(), 1<<63+1)
	client := func() []byte {
		b := binary.AppendUvarint(cols(), 2) // one client
		return str(str(b, "chat"), "interactive")
	}
	latencies := binary.AppendUvarint(client(), 1<<63+1)
	// Three latencies claimed, two one-byte varints present: one past
	// what the remaining payload can hold.
	pastEnd := append(binary.AppendUvarint(client(), 4), 0x02, 0x02)
	return map[string][]byte{
		"huge-npoints":           appendFrame(nil, npoints),
		"huge-workload":          appendFrame(nil, wl),
		"huge-clients":           appendFrame(nil, clients),
		"huge-latencies":         appendFrame(nil, latencies),
		"latencies-past-payload": appendFrame(nil, pastEnd),
	}
}

// TestColumnarShapes pins the reader's behaviour on the shapes crashed
// writers and bit rot actually produce, mirroring TestFuzzSeedShapes.
func TestColumnarShapes(t *testing.T) {
	recs := columnarRecords(t)
	valid := encodeAll(t, recs[:1])

	t.Run("torn frame after valid frame", func(t *testing.T) {
		data := append(append([]byte{}, valid...), valid[:len(valid)/2]...)
		st, path := columnarFuzzStore(t, data)
		cells, err := st.Cells("r1")
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != 1 || cells[0].Label != "smooth/rep0" {
			t.Fatalf("cells = %+v, want the single complete record", cells)
		}
		if err := truncateTornFrames(path); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, valid) {
			t.Fatalf("recovery left %d bytes, want the %d-byte complete frame", len(b), len(valid))
		}
	})

	t.Run("crc corruption is an error not a skip", func(t *testing.T) {
		data := append([]byte{}, valid...)
		data[len(data)-1] ^= 0xff // flip payload bits under an intact header
		st, _ := columnarFuzzStore(t, data)
		if _, err := st.Cells("r1"); err == nil {
			t.Fatal("corrupt complete frame should fail loudly")
		}
	})

	t.Run("wrong schema is an error not a skip", func(t *testing.T) {
		rec := recs[0]
		rec.Schema = 1
		frame, err := AppendCellFrame(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		st, _ := columnarFuzzStore(t, frame)
		if _, err := st.Cells("r1"); err == nil {
			t.Fatal("outdated schema should fail loudly")
		}
	})

	t.Run("duplicate labels keep first", func(t *testing.T) {
		st, _ := columnarFuzzStore(t, append(append([]byte{}, valid...), valid...))
		cells, err := st.Cells("r1")
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != 1 {
			t.Fatalf("%d records, want 1 (first write wins)", len(cells))
		}
	})

	t.Run("huge claimed lengths error without panic", func(t *testing.T) {
		for name, frame := range hostileLengthFrames(t) {
			st, _ := columnarFuzzStore(t, frame)
			if _, err := st.Cells("r1"); err == nil {
				t.Fatalf("%s: CRC-valid frame with absurd length should fail loudly", name)
			}
		}
	})

	t.Run("corrupt manifest fails loudly, not as an empty run", func(t *testing.T) {
		// A columnar run whose manifest won't parse must surface the
		// manifest error: a silent JSONL fallback would look for a
		// nonexistent cells.jsonl and report nil, nil — "never
		// measured" — discarding every completed cell on resume.
		st, path := columnarFuzzStore(t, valid)
		manifest := filepath.Join(filepath.Dir(path), "manifest.json")
		if err := os.WriteFile(manifest, []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
		if cells, err := st.Cells("r1"); err == nil {
			t.Fatalf("Cells = %v, nil, want the manifest error", cells)
		}
		// A missing manifest stays lenient: hand-built JSONL fixtures
		// (fuzzStore) predate the manifest stamp entirely.
		if err := os.Remove(manifest); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Cells("r1"); err != nil {
			t.Fatalf("missing manifest should fall back to JSONL, got %v", err)
		}
	})

	t.Run("mid-file garbage is left for the reader to report", func(t *testing.T) {
		// An overflowing varint header with bytes after it is
		// corruption, not a torn append: recovery must not eat it.
		data := append(bytes.Repeat([]byte{0xff}, 10), 0x01)
		st, path := columnarFuzzStore(t, data)
		if err := truncateTornFrames(path); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, data) {
			t.Fatal("recovery modified mid-file corruption")
		}
		if _, err := st.Cells("r1"); err == nil {
			t.Fatal("malformed header should fail loudly")
		}
	})
}

// FuzzColumnarDecode feeds arbitrary bytes to the columnar reader and
// recovery path, mirroring FuzzCellsRecovery's contract:
//
//  1. Cells never panics, whatever is on disk.
//  2. truncateTornFrames never grows the file and is idempotent.
//  3. Recovery never loses complete frames: Cells sees the same
//     records before and after truncation.
//  4. A frame appended after recovery is read back intact.
//  5. Every complete record round-trips byte-identically: one
//     re-encode is a fixed point of the codec.
//
// validColumnarSeedFrame is the one complete frame the seed corpus and
// the append-after-recovery check share.
func validColumnarSeedFrame(tb testing.TB) []byte {
	tb.Helper()
	s := trace.NewSeries("seed/rep0", 10)
	s.Points = []trace.Point{{TimeSec: 0, BandwidthGbps: 9.5, Retransmissions: 1, RTTms: 0.2, CPUFrac: 0.4}}
	b, err := AppendCellFrame(nil, CellRecord{Schema: 2, Label: "seed/rep0", Cloud: "ec2", Instance: "c5.xlarge", Regime: "full-speed", Series: s})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// columnarSeeds is the named seed corpus: a real frame, prefixes of it
// (torn appends), header edge cases, and hostile lengths. The same
// seeds are committed under testdata/fuzz/FuzzColumnarDecode, kept in
// sync by TestColumnarSeedCorpusCommitted.
func columnarSeeds(tb testing.TB) map[string][]byte {
	valid := validColumnarSeedFrame(tb)
	seeds := map[string][]byte{
		"seed-empty":           []byte(""),
		"seed-zero-frame":      {0x00},
		"seed-torn-varint":     {0x80},
		"seed-valid":           valid,
		"seed-torn-frame":      valid[:len(valid)/2],
		"seed-valid-then-torn": append(append([]byte{}, valid...), valid[:3]...),
		"seed-overflow-varint": bytes.Repeat([]byte{0xff}, 16),
		"seed-bad-payload":     {0x05, 0, 0, 0, 0, 'a', 'b'},
		"seed-huge-length":     append([]byte{0xfe, 0xff, 0xff, 0xff, 0x0f}, valid...),
	}
	for name, frame := range hostileLengthFrames(tb) {
		seeds["seed-"+name] = frame
	}
	return seeds
}

func FuzzColumnarDecode(f *testing.F) {
	names := make([]string, 0)
	seeds := columnarSeeds(f)
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(seeds[name])
	}
	valid := validColumnarSeedFrame(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		st, path := columnarFuzzStore(t, data)

		// (1) Arbitrary bytes must not panic; errors are fine.
		before, beforeErr := st.Cells("r1")

		// (2) Recovery never grows the file and is idempotent.
		if err := truncateTornFrames(path); err != nil {
			t.Fatalf("truncateTornFrames: %v", err)
		}
		recovered, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recovered) > len(data) {
			t.Fatalf("recovery grew the file: %d -> %d bytes", len(data), len(recovered))
		}
		if err := truncateTornFrames(path); err != nil {
			t.Fatalf("second truncateTornFrames: %v", err)
		}
		again, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(recovered, again) {
			t.Fatal("truncateTornFrames is not idempotent")
		}

		// (3) Complete frames survive recovery.
		after, afterErr := st.Cells("r1")
		if (beforeErr == nil) != (afterErr == nil) {
			t.Fatalf("recovery changed readability: before=%v after=%v", beforeErr, afterErr)
		}
		if beforeErr == nil {
			if len(after) != len(before) {
				t.Fatalf("recovery changed record count: %d -> %d", len(before), len(after))
			}
			for i := range before {
				if before[i].Label != after[i].Label {
					t.Fatalf("recovery reordered records: %q -> %q", before[i].Label, after[i].Label)
				}
			}

			// (5) Canonical round-trip: re-encoding the decoded records
			// once reaches a fixed point of the codec, and decoding it
			// yields the same records.
			enc1 := encodeAll(t, before)
			dec1, err := readCellsColumnar(enc1)
			if err != nil {
				t.Fatalf("re-encoded records do not decode: %v", err)
			}
			if len(dec1) != len(before) {
				t.Fatalf("re-encode changed record count: %d -> %d", len(before), len(dec1))
			}
			if enc2 := encodeAll(t, dec1); !bytes.Equal(enc1, enc2) {
				t.Fatal("encode(decode(enc1)) != enc1: canonical encoding is not a fixed point")
			}

			// (6) CellFrameLen sizes every accepted record's frame
			// exactly.
			size := 0
			for _, rec := range before {
				size += CellFrameLen(rec)
			}
			if size != len(enc1) {
				t.Fatalf("CellFrameLen totals %d bytes, the frames take %d", size, len(enc1))
			}
		}

		// (4) Appending after recovery yields a readable tail frame.
		fh, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.Write(valid); err != nil {
			t.Fatal(err)
		}
		fh.Close()
		final, finalErr := st.Cells("r1")
		if finalErr == nil {
			found := false
			for _, r := range final {
				if r.Label == "seed/rep0" {
					found = true
				}
			}
			if !found {
				t.Fatal("frame appended after recovery was not read back")
			}
		} else {
			// Pre-existing complete frames were already unreadable; the
			// contract only promises the append itself is intact.
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasSuffix(raw, valid) {
				t.Fatal("appended frame corrupted by recovery")
			}
		}
	})
}

var updateCorpus = flag.Bool("update", false, "rewrite the committed fuzz seed corpus under testdata/fuzz from the in-code seeds")

// TestColumnarSeedCorpusCommitted keeps the committed seed corpus
// (testdata/fuzz/FuzzColumnarDecode, which `go test -fuzz` picks up
// alongside the f.Add seeds) in lockstep with the in-code seeds:
// editing one without the other fails here. Run with -update to
// regenerate the files.
func TestColumnarSeedCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzColumnarDecode")
	for name, data := range columnarSeeds(t) {
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

// TestColumnarStoreEndToEnd drives the full Sink path in columnar
// mode: a fleet run persists through Put, a second handle restores
// every cell byte-identically, and resume re-executes nothing.
func TestColumnarStoreEndToEnd(t *testing.T) {
	spec := goldenSpec(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run, err := st.CreateWithMeta("col", spec, RunMeta{CreatedUnix: 1, Encoding: EncodingColumnar})
	if err != nil {
		t.Fatal(err)
	}
	spec.Sink = run
	res, err := fleet.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	if run.Manifest().Encoding != EncodingColumnar || run.Manifest().Schema != 4 {
		t.Fatalf("manifest encoding/schema = %q/%d, want columnar/4", run.Manifest().Encoding, run.Manifest().Schema)
	}
	// The spec identity inside keeps its own (older) schema so keys
	// don't depend on the storage encoding.
	if run.Manifest().Spec.Schema != 2 {
		t.Fatalf("spec identity schema = %d, want 2", run.Manifest().Spec.Schema)
	}

	cells, err := st.Cells("col")
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(res.Cells) {
		t.Fatalf("store has %d cells, fleet produced %d", len(cells), len(res.Cells))
	}
	bySeries := make(map[string]*trace.Series)
	for _, c := range res.Cells {
		bySeries[c.Cell.Label()] = c.Series
	}
	for _, rec := range cells {
		want, ok := bySeries[rec.Label]
		if !ok {
			t.Fatalf("stored cell %q not in fleet result", rec.Label)
		}
		a, _ := json.Marshal(rec.Series)
		b, _ := json.Marshal(want)
		if !bytes.Equal(a, b) {
			t.Fatalf("cell %q series changed across columnar round-trip", rec.Label)
		}
	}

	// Resume: zero re-executions, byte-identical outcome.
	spec2 := goldenSpec(t)
	executed := 0
	spec2.Progress = func(fleet.Progress) { executed++ }
	run2, err := st.Resume("col", spec2)
	if err != nil {
		t.Fatal(err)
	}
	defer run2.Close()
	spec2.Sink = run2
	res2, err := fleet.Run(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if executed != 0 {
		t.Fatalf("resume re-executed %d cells, want 0", executed)
	}
	for i := range res.Cells {
		a, _ := json.Marshal(res.Cells[i].Series)
		b, _ := json.Marshal(res2.Cells[i].Series)
		if !bytes.Equal(a, b) {
			t.Fatalf("cell %s differs across resume", res.Cells[i].Cell.Label())
		}
	}
}

// TestCreateRejectsUnknownEncoding: the stamp is validated at creation,
// not discovered at read time.
func TestCreateRejectsUnknownEncoding(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.CreateWithMeta("bad", goldenSpec(t), RunMeta{Encoding: "parquet"}); err == nil {
		t.Fatal("unknown encoding accepted")
	}
	// The explicit default spelling normalises to "".
	run, err := st.CreateWithMeta("ok", goldenSpec(t), RunMeta{Encoding: "jsonl"})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	if run.Manifest().Encoding != EncodingJSONL {
		t.Fatalf("encoding %q, want normalised JSONL", run.Manifest().Encoding)
	}
	if run.Manifest().Schema != 2 {
		t.Fatalf("JSONL run schema = %d, want 2 (encoding must not bump it)", run.Manifest().Schema)
	}
}

// flag1Frame frames rec the way stores written before flag 2 hold it:
// the workload as a JSON blob behind flag 1.
func flag1Frame(t *testing.T, rec CellRecord) []byte {
	t.Helper()
	wl := rec.Workload
	rec.Workload = nil
	payload, err := encodeCellPayload(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(wl)
	if err != nil {
		t.Fatal(err)
	}
	payload = append(payload[:len(payload)-1], 1) // flag 0 -> 1
	payload = binary.AppendUvarint(payload, uint64(len(blob)))
	return appendFrame(nil, append(payload, blob...))
}

// TestFlag1FrameCompat: a workload cell framed by the encoder that
// wrote flag 1 (testdata/compat, committed as that encoder wrote it,
// with the record's JSON beside it) keeps decoding to the record it
// was written from, and re-encodes as flag-2 columns.
func TestFlag1FrameCompat(t *testing.T) {
	frame, err := os.ReadFile(filepath.Join("testdata", "compat", "flag1-frame.col"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "compat", "flag1-record.json"))
	if err != nil {
		t.Fatal(err)
	}
	want = bytes.TrimSuffix(want, []byte("\n"))
	if !bytes.Contains(frame, []byte(`{"clients":[`)) {
		t.Fatal("fixture holds no JSON workload blob: it is not a flag-1 frame")
	}
	rec, n, err := DecodeCellFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(frame) {
		t.Fatalf("decoded %d of the frame's %d bytes", n, len(frame))
	}
	if got, _ := json.Marshal(rec); !bytes.Equal(got, want) {
		t.Fatalf("flag-1 frame decoded to a different record:\n got %s\nwant %s", got, want)
	}
	if again := flag1Frame(t, rec); !bytes.Equal(again, frame) {
		t.Error("flag1Frame does not reproduce the committed frame")
	}
	re, err := AppendCellFrame(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(re, []byte(`"clients"`)) || len(re) >= len(frame) {
		t.Errorf("re-encoded frame (%d bytes, flag-1 %d) still carries the JSON blob", len(re), len(frame))
	}
	rec2, _, err := DecodeCellFrame(re)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(rec2); !bytes.Equal(got, want) {
		t.Fatalf("flag-2 re-encoding changed the record:\n got %s\nwant %s", got, want)
	}
}

// TestMergeShardsFlag1Duplicate: a shard resumed over a store written
// before flag 2 holds flag-1 frames beside flag-2 ones. When another
// shard holds the same cell as flag 2, the merge must take the two
// copies as the duplicate they are and write the merged run all in
// flag 2 — byte-identical to a single-process run.
func TestMergeShardsFlag1Duplicate(t *testing.T) {
	spec := goldenSpec(t)
	spec.Workers = 1
	spec.Workload = &workload.Spec{
		AggregateRPS: 1,
		Clients: []workload.Client{
			{ID: "chat", RateFraction: 0.75, SLOClass: "interactive", Arrival: workload.Arrival{Process: workload.Poisson}},
			{ID: "batch", RateFraction: 0.25, SLOClass: "batch", Arrival: workload.Arrival{Process: workload.Gamma, CV: 2}},
		},
	}
	cells := spec.Cells()
	run := func(st *Store, runID string, shard *ShardStamp, cells []fleet.Cell) {
		t.Helper()
		r, err := st.CreateWithMeta(runID, spec, RunMeta{CreatedUnix: 1, Encoding: EncodingColumnar, Shard: shard})
		if err != nil {
			t.Fatal(err)
		}
		s := spec
		s.Sink = r
		if _, err := fleet.RunCells(s, cells); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	single, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run(single, "r1", nil, cells)

	// Shard 0 holds every cell, the overlapping one rewritten as the
	// old encoder wrote it; shard 1 holds that cell as flag 2.
	overlap := cells[1].Label()
	stA, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run(stA, "s", &ShardStamp{Index: 0, Count: 2}, cells)
	path := filepath.Join(stA.Dir(), "runs", "s", "cells.col")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := readCellsColumnar(b)
	if err != nil {
		t.Fatal(err)
	}
	var mixed []byte
	for _, rec := range recs {
		if rec.Label == overlap {
			if rec.Workload == nil {
				t.Fatal("overlapping cell carries no workload")
			}
			mixed = append(mixed, flag1Frame(t, rec)...)
			continue
		}
		if mixed, err = AppendCellFrame(mixed, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, mixed, 0o644); err != nil {
		t.Fatal(err)
	}
	stB, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run(stB, "s", &ShardStamp{Index: 1, Count: 2}, cells[1:])

	var shards []ShardData
	for _, st := range []*Store{stA, stB} {
		d, err := LoadShard(st, "s")
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, d)
	}
	dst, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]string, len(cells))
	for i, c := range cells {
		labels[i] = c.Label()
	}
	merged, err := MergeShards(dst, "r1", shards, labels)
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()
	got, err := os.ReadFile(filepath.Join(dst.Dir(), "runs", "r1", "cells.col"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(single.Dir(), "runs", "r1", "cells.col"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("merged cells.col (%d bytes) differs from the single-process run's (%d bytes)", len(got), len(want))
	}
	if bytes.Contains(got, []byte(`"clients"`)) {
		t.Error("merged run still holds a flag-1 JSON blob")
	}
}
