package store

// Tests of the frame walker, readFrames, against the whole-image read
// it replaced: the reference below is that read verbatim — the cells
// file read whole into one buffer (refReadCellsFile), then its frames
// parsed (refNextFrame) and decoded in place (refWalkFrames) — and
// FuzzColumnarDecode and TestReadFramesWindowEdges hold Cells and
// BandwidthCells to it, records and error text alike.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"cloudvar/internal/trace"
)

// refReadCellsFile reads a run's cells file in encoding enc into dst's
// array when the file fits, else into a new array with a sixteenth to
// spare: the runs of one campaign matrix hold files of about one size,
// so the next run read through the same buffer fits too. A run created
// but never measured has no file and reads as empty.
func refReadCellsFile(s *Store, runID, enc string, dst []byte) ([]byte, error) {
	f, err := os.Open(filepath.Join(s.runDir(runID), cellsFileName(enc)))
	if os.IsNotExist(err) {
		return dst[:0], nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: run %q cells: %w", runID, err)
	}
	defer f.Close()
	b := dst[:0]
	if fi, err := f.Stat(); err == nil {
		if size := int(fi.Size()) + bytes.MinRead; size > cap(b) {
			b = make([]byte, 0, size+size/16)
		}
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)] // the file grew since Stat
		}
		n, err := f.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, fmt.Errorf("store: run %q cells: %w", runID, err)
		}
	}
}

// refNextFrame parses one frame header at b[off:]. It distinguishes a
// structurally torn tail (the file ended mid-frame: tornAt >= 0 gives
// the truncation offset) from a corrupt header (err != nil).
func refNextFrame(b []byte, off int) (payloadStart, payloadLen, tornAt int, err error) {
	n, hdr := binary.Uvarint(b[off:])
	if hdr == 0 {
		// Varint ran off the end of the file: torn header.
		return 0, 0, off, nil
	}
	if hdr < 0 {
		return 0, 0, -1, fmt.Errorf("malformed frame length at offset %d", off)
	}
	if n > maxColumnarFrame {
		return 0, 0, -1, fmt.Errorf("frame of %d bytes at offset %d exceeds limit", n, off)
	}
	payloadStart = off + hdr + 4
	if payloadStart+int(n) > len(b) {
		// Frame extends past EOF: torn at the frame start.
		return 0, 0, off, nil
	}
	return payloadStart, int(n), -1, nil
}

// refWalkFrames decodes every complete frame of a cells.col image, in
// order, with decodeFrame and decode, and calls keep with the first
// record of each label (later appends of a label can only come from
// concurrent writers). It ignores a structurally torn tail (crashed
// writer — the interrupted cell re-executes on resume) but fails
// loudly on a corrupt complete frame (CRC mismatch or undecodable
// payload), mirroring the JSONL reader's bad-line behaviour.
func refWalkFrames(b []byte, decode func(payload []byte) (CellRecord, error), keep func(CellRecord)) error {
	seen := make(map[string]bool)
	for off := 0; off < len(b); {
		payloadStart, payloadLen, tornAt, err := refNextFrame(b, off)
		if err != nil {
			return err
		}
		if tornAt >= 0 {
			return nil // torn tail: everything before it is intact
		}
		rec, err := decodeFrame(b, payloadStart, payloadLen, decode)
		if err != nil {
			return fmt.Errorf("frame at offset %d: %w", off, err)
		}
		off = payloadStart + payloadLen
		if !seen[rec.Label] {
			seen[rec.Label] = true
			keep(rec)
		}
	}
	return nil
}

// refCells is Cells of a columnar run by the whole-image read.
func refCells(s *Store, runID string) ([]CellRecord, error) {
	b, err := refReadCellsFile(s, runID, EncodingColumnar, nil)
	if err != nil {
		return nil, err
	}
	var out []CellRecord
	if err := refWalkFrames(b, decodeCellPayload, func(rec CellRecord) { out = append(out, rec) }); err != nil {
		return nil, fmt.Errorf("store: run %q cells: %w", runID, err)
	}
	return out, nil
}

// refBandwidthCells is BandwidthCells of a columnar run by the
// whole-image read, through scratch.
func refBandwidthCells(s *Store, runID string, scratch *BandwidthScratch, visit func(BandwidthCell)) error {
	b, err := refReadCellsFile(s, runID, EncodingColumnar, scratch.file)
	if err != nil {
		return err
	}
	scratch.file = b
	decode := func(payload []byte) (CellRecord, error) { return decodeBandwidthPayload(payload, scratch) }
	err = refWalkFrames(b, decode, func(rec CellRecord) {
		visit(BandwidthCell{Label: rec.Label, Cloud: rec.Cloud, Instance: rec.Instance, Regime: rec.Regime,
			Rep: rec.Rep, Bandwidth: scratch.bw, Workload: rec.Workload})
	})
	if err != nil {
		return fmt.Errorf("store: run %q cells: %w", runID, err)
	}
	return nil
}

// readImage decodes the records of a cells.col image with readFrames.
func readImage(b []byte) ([]CellRecord, error) {
	var out []CellRecord
	var window []byte
	err := readFrames(bytes.NewReader(b), int64(len(b)), &window, decodeCellPayload, func(rec CellRecord) { out = append(out, rec) })
	return out, err
}

// collectBandwidthCells runs one BandwidthCells-shaped read and keeps
// copies of the cells it visits.
func collectBandwidthCells(read func(visit func(BandwidthCell)) error) ([]BandwidthCell, error) {
	var got []BandwidthCell
	err := read(func(c BandwidthCell) {
		c.Bandwidth = slices.Clone(c.Bandwidth)
		c.Workload = cloneWorkload(c.Workload)
		got = append(got, c)
	})
	return got, err
}

// sameSeries reports whether two series are equal bit for bit, nil and
// empty points apart.
func sameSeries(a, b *trace.Series) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Label != b.Label || math.Float64bits(a.IntervalSec) != math.Float64bits(b.IntervalSec) ||
		(a.Points == nil) != (b.Points == nil) || len(a.Points) != len(b.Points) {
		return false
	}
	for i, p := range a.Points {
		q := b.Points[i]
		if math.Float64bits(p.TimeSec) != math.Float64bits(q.TimeSec) || math.Float64bits(p.BandwidthGbps) != math.Float64bits(q.BandwidthGbps) ||
			p.Retransmissions != q.Retransmissions || math.Float64bits(p.RTTms) != math.Float64bits(q.RTTms) ||
			math.Float64bits(p.CPUFrac) != math.Float64bits(q.CPUFrac) {
			return false
		}
	}
	return true
}

// matchReference fails unless a read gave the reference's error text
// or, without one, the reference's records.
func matchReference(t *testing.T, what string, got []CellRecord, err error, want []CellRecord, wantErr error) {
	t.Helper()
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", what, err, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, reference %d", what, len(got), len(want))
	}
	for i, rec := range want {
		g := got[i]
		if g.Schema != rec.Schema || g.Label != rec.Label || g.Cloud != rec.Cloud || g.Instance != rec.Instance ||
			g.Regime != rec.Regime || g.Rep != rec.Rep || !sameSeries(g.Series, rec.Series) || !sameWorkload(g.Workload, rec.Workload) {
			t.Fatalf("%s: record %d (%q) differs from the reference's (%q)", what, i, g.Label, rec.Label)
		}
	}
}

// matchBandwidthReference fails unless BandwidthCells of run r1, read
// through scratch, visits the cells the whole-image read visits,
// through a scratch of its own, with the same error text.
func matchBandwidthReference(t *testing.T, st *Store, scratch *BandwidthScratch) {
	t.Helper()
	got, err := collectBandwidthCells(func(visit func(BandwidthCell)) error {
		return st.BandwidthCells("r1", EncodingColumnar, scratch, visit)
	})
	want, wantErr := collectBandwidthCells(func(visit func(BandwidthCell)) error {
		return refBandwidthCells(st, "r1", &BandwidthScratch{}, visit)
	})
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("BandwidthCells error %v, reference %v", err, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("BandwidthCells visited %d cells, reference %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Label != w.Label || g.Cloud != w.Cloud || g.Instance != w.Instance || g.Regime != w.Regime || g.Rep != w.Rep ||
			!slices.EqualFunc(g.Bandwidth, w.Bandwidth, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) ||
			!sameWorkload(g.Workload, w.Workload) {
			t.Fatalf("BandwidthCells cell %d (%q) differs from the reference's (%q)", i, g.Label, w.Label)
		}
	}
}

// matchReaders holds readFrames, fed the image through readers that
// return one byte a read, half of what is asked and the last bytes
// together with EOF, starting from an empty window and told no file
// size, to the whole-image walk: every refill and window growth then
// meets every header and payload boundary. The window is scribbled
// over before the records are compared, so a record that aliased it
// would differ.
func matchReaders(t *testing.T, data []byte) {
	t.Helper()
	var want []CellRecord
	wantErr := refWalkFrames(data, decodeCellPayload, func(rec CellRecord) { want = append(want, rec) })
	for name, r := range map[string]func(io.Reader) io.Reader{
		"one-byte": iotest.OneByteReader, "half": iotest.HalfReader, "data-err": iotest.DataErrReader,
	} {
		var got []CellRecord
		var window []byte
		err := readFrames(r(bytes.NewReader(data)), -1, &window, decodeCellPayload, func(rec CellRecord) { got = append(got, rec) })
		scribble := window[:cap(window)]
		for i := range scribble {
			scribble[i] = 0xa5
		}
		matchReference(t, name+" reader", got, err, want, wantErr)
	}
}

// sizedFrame returns a valid frame of exactly size bytes for label,
// whose one bandwidth is bw: a series label pads it, over as many
// zero-delta points (5 bytes each) as a frame past 60,000 bytes needs.
func sizedFrame(tb testing.TB, label string, bw float64, size int) []byte {
	tb.Helper()
	rec := CellRecord{Schema: 2, Label: label, Cloud: "ec2", Instance: "c5.xlarge", Regime: "full-speed",
		Series: &trace.Series{IntervalSec: 10, Points: make([]trace.Point, max(1, (size-60000)/5))}}
	rec.Series.Points[0].BandwidthGbps = bw
	base := CellFrameLen(rec)
	for pad := max(0, size-base-4); pad <= size-base+1; pad++ {
		rec.Series.Label = strings.Repeat("p", pad)
		if CellFrameLen(rec) == size {
			frame, err := AppendCellFrame(nil, rec)
			if err != nil {
				tb.Fatal(err)
			}
			return frame
		}
	}
	tb.Fatalf("no frame of %d bytes for %s", size, label)
	return nil
}

// frames concatenates frames.
func frames(fs ...[]byte) []byte { return bytes.Join(fs, nil) }

// TestReadFramesWindowEdges reads cells files whose frames meet the
// window's edges through Cells and BandwidthCells and holds both to the
// whole-image reference. A fresh read's window holds w bytes, so its
// first refill starts at file offset w.
func TestReadFramesWindowEdges(t *testing.T) {
	w := frameChunk + frameChunk/16
	hostileTail := bytes.Repeat([]byte{0x5a}, 100000)
	cases := []struct {
		name string
		data []byte
		// labels are the records Cells keeps; errText is part of the
		// error it must return instead.
		labels  []string
		errText string
		// bounded asks that a fresh BandwidthCells read allocate no more
		// than the file holds.
		bounded bool
	}{
		{
			name:   "frame straddles a refill",
			data:   frames(sizedFrame(t, "a/rep0", 1, 60000), sizedFrame(t, "b/rep0", 2, 20000), sizedFrame(t, "c/rep0", 3, 500)),
			labels: []string{"a/rep0", "b/rep0", "c/rep0"},
		},
		{
			name:   "frame larger than the first window",
			data:   frames(sizedFrame(t, "a/rep0", 1, 1000), sizedFrame(t, "big/rep0", 2, 3*w), sizedFrame(t, "c/rep0", 3, 1000)),
			labels: []string{"a/rep0", "big/rep0", "c/rep0"},
		},
		{
			// The third frame's header is a 3-byte length and the CRC:
			// the refill cuts it after its first byte.
			name:   "header split at a refill",
			data:   frames(sizedFrame(t, "a/rep0", 1, 50000), sizedFrame(t, "b/rep0", 2, w-1-50000), sizedFrame(t, "c/rep0", 3, 40000), sizedFrame(t, "d/rep0", 4, 500)),
			labels: []string{"a/rep0", "b/rep0", "c/rep0", "d/rep0"},
		},
		{
			// The file ends two bytes into a 3-byte length, at the end of
			// the first window.
			name:   "header torn at a refill",
			data:   frames(sizedFrame(t, "a/rep0", 1, 50000), sizedFrame(t, "b/rep0", 2, w-2-50000), sizedFrame(t, "c/rep0", 3, 40000)[:2]),
			labels: []string{"a/rep0", "b/rep0"},
		},
		{
			name:   "crc torn at a refill",
			data:   frames(sizedFrame(t, "a/rep0", 1, 50000), sizedFrame(t, "b/rep0", 2, w-5-50000), sizedFrame(t, "c/rep0", 3, 40000)[:5]),
			labels: []string{"a/rep0", "b/rep0"},
		},
		{
			// The second copy of dup/rep0 carries another bandwidth: the
			// first copy, read before the refill, must win.
			name:   "duplicate label across a refill",
			data:   frames(sizedFrame(t, "dup/rep0", 1, 40000), sizedFrame(t, "b/rep0", 2, 40000), sizedFrame(t, "dup/rep0", 7, 40000), sizedFrame(t, "c/rep0", 3, 500)),
			labels: []string{"dup/rep0", "b/rep0", "c/rep0"},
		},
		{
			// A header claiming 1 GiB, then more bytes than the window
			// holds: the window grows with them, never towards the claim.
			name: "hostile length",
			data: frames(sizedFrame(t, "a/rep0", 1, 40000), sizedFrame(t, "b/rep0", 2, 40000), sizedFrame(t, "c/rep0", 3, 40000),
				sizedFrame(t, "d/rep0", 4, 40000), sizedFrame(t, "e/rep0", 5, 40000),
				binary.AppendUvarint(nil, maxColumnarFrame), []byte{0, 0, 0, 0}, hostileTail),
			labels:  []string{"a/rep0", "b/rep0", "c/rep0", "d/rep0", "e/rep0"},
			bounded: true,
		},
		{
			name: "corrupt frame past a refill",
			data: frames(sizedFrame(t, "a/rep0", 1, 60000), sizedFrame(t, "b/rep0", 2, 20000),
				func() []byte { f := sizedFrame(t, "c/rep0", 3, 500); f[len(f)-1] ^= 0xff; return f }()),
			errText: "store: run \"r1\" cells: frame at offset 80000: crc",
		},
		{
			name:    "malformed length past a refill",
			data:    frames(sizedFrame(t, "a/rep0", 1, 60000), sizedFrame(t, "b/rep0", 2, 20000), bytes.Repeat([]byte{0xff}, 11)),
			errText: "store: run \"r1\" cells: malformed frame length at offset 80000",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st, _ := columnarFuzzStore(t, c.data)
			got, err := st.Cells("r1")
			want, wantErr := refCells(st, "r1")
			matchReference(t, "Cells", got, err, want, wantErr)
			var scratch BandwidthScratch
			matchBandwidthReference(t, st, &scratch)
			matchBandwidthReference(t, st, &scratch) // again through the grown window
			matchReaders(t, c.data)
			if c.errText != "" {
				if err == nil || !strings.HasPrefix(err.Error(), c.errText) {
					t.Fatalf("Cells error %v, want one starting %q", err, c.errText)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var labels []string
			for _, rec := range got {
				labels = append(labels, rec.Label)
			}
			if !slices.Equal(labels, c.labels) {
				t.Fatalf("Cells kept %q, want %q", labels, c.labels)
			}
			if got[0].Series.Points[0].BandwidthGbps != 1 {
				t.Errorf("the first record's bandwidth is %v, want the first copy's 1", got[0].Series.Points[0].BandwidthGbps)
			}
			if c.bounded {
				alloc := readAlloc(t, st, "r1")
				if alloc > uint64(len(c.data)) {
					t.Errorf("a fresh BandwidthCells read of a %d-byte file allocates %d bytes", len(c.data), alloc)
				}
				t.Logf("a fresh BandwidthCells read of the %d-byte file allocates %d bytes", len(c.data), alloc)
			}
		})
	}
}

// readAlloc returns the fewest bytes any of three BandwidthCells reads
// of runID, each through a fresh scratch, allocates.
func readAlloc(t *testing.T, st *Store, runID string) uint64 {
	t.Helper()
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := st.BandwidthCells(runID, EncodingColumnar, &BandwidthScratch{}, func(BandwidthCell) {}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestBandwidthCellsMemoryIsAFrame: a drift read holds about one frame
// of a columnar run, not the file. Reading runs of 4 and of 64 cells of
// 4,000 noisy points each through a fresh scratch allocates bytes that
// differ by less than one frame; a whole-file read would differ by 60.
func TestBandwidthCellsMemoryIsAFrame(t *testing.T) {
	seed := uint64(1)
	noise := func() float64 { // a xorshift draw in [0, 1)
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return float64(seed>>11) / (1 << 53)
	}
	rec := CellRecord{Schema: 2, Cloud: "ec2", Instance: "c5.xlarge", Regime: "full-speed",
		Series: &trace.Series{Label: "ec2/full-speed", IntervalSec: 10, Points: make([]trace.Point, 4000)}}
	for i := range rec.Series.Points {
		rec.Series.Points[i] = trace.Point{TimeSec: float64(10 * i), BandwidthGbps: 9 + noise(),
			Retransmissions: int(20 * noise()), RTTms: 0.2 + noise()/10, CPUFrac: 0.5 + noise()/4}
	}
	run := func(cells int) (*Store, int) {
		var data []byte
		frameLen := 0
		for i := range cells {
			rec.Rep = i
			rec.Label = fmt.Sprintf("ec2/c5.xlarge/full-speed/rep%d", i)
			frameLen = max(frameLen, CellFrameLen(rec))
			var err error
			if data, err = AppendCellFrame(data, rec); err != nil {
				t.Fatal(err)
			}
		}
		st, _ := columnarFuzzStore(t, data)
		return st, frameLen
	}
	few, frameLen := run(4)
	many, _ := run(64)
	a4, a64 := readAlloc(t, few, "r1"), readAlloc(t, many, "r1")
	if a64 >= a4+uint64(frameLen) {
		t.Errorf("reading 64 cells allocates %d bytes, 4 cells %d: %d more, a frame is %d", a64, a4, a64-a4, frameLen)
	}
	t.Logf("frame %d bytes; a fresh read of 4 cells allocates %d bytes, of 64 cells %d", frameLen, a4, a64)
}
