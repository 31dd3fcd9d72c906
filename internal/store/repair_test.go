package store

// Resume repairs a run's torn tail before it appends: truncateTornFrames
// for a columnar run, truncateTornTail for a JSONL one. Both read only
// what they need — one header per frame, the file back to its last
// newline — and must cut where the whole-file versions they replaced,
// kept below verbatim, cut. TestResumeMemoryIsAFrame (store_test.go)
// holds what a resume allocates to less than a frame.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// refTruncateTornFrames drops a structurally torn trailing frame from a
// cells.col file, the columnar analogue of truncateTornTail. Only the
// tail is repaired: a malformed or CRC-broken frame followed by more
// bytes is corruption, which recovery leaves in place for the reader
// to report. Idempotent — the truncation point is a frame boundary, so
// a second pass finds nothing torn.
func refTruncateTornFrames(path string) error {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	off := 0
	for off < len(b) {
		payloadStart, payloadLen, torn, err := nextFrame(b[off:], off)
		if err != nil {
			return nil // mid-file corruption: loud at read time, not repairable here
		}
		if torn {
			return os.Truncate(path, int64(off))
		}
		// CRC and payload validity are deliberately not checked here:
		// a complete-but-corrupt frame is damage, not a torn append.
		off += payloadStart + payloadLen
	}
	return nil
}

// refTruncateTornTail truncates path to its last complete line. Missing
// files are fine (a fresh run).
func refTruncateTornTail(path string) error {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if i := strings.LastIndexByte(string(b), '\n'); i != len(b)-1 {
		return os.Truncate(path, int64(i+1))
	}
	return nil
}

// matchRepair repairs a file holding data with repair and another with
// ref, and fails unless both leave the same bytes.
func matchRepair(t *testing.T, name string, data []byte, repair, ref func(path string) error) {
	t.Helper()
	dir := t.TempDir()
	left := func(f func(string) error, file string) []byte {
		path := filepath.Join(dir, file)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := f(path); err != nil {
			t.Fatalf("%s: %s: %v", name, file, err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	got, want := left(repair, "repaired"), left(ref, "reference")
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: the repair left %d of %d bytes, the reference %d", name, len(got), len(data), len(want))
	}
}

// TestTornRepairMatchesReference holds both repairs to the whole-file
// versions where a chunked or header-by-header read could go wrong:
// newlines and torn tails on either side of the backward scan's chunk
// edges, and frames torn in their length, their CRC or their payload,
// after a header whose varint overflows, or with nothing after them.
func TestTornRepairMatchesReference(t *testing.T) {
	line := func(n int) []byte { return append(bytes.Repeat([]byte{'x'}, n-1), '\n') }
	for _, lines := range [][]int{nil, {1}, {tailChunk}, {tailChunk - 1, 1}, {3, tailChunk + 2}, {2 * tailChunk, tailChunk}} {
		var whole []byte
		for _, n := range lines {
			whole = append(whole, line(n)...)
		}
		for _, torn := range []int{0, 1, tailChunk - 1, tailChunk, tailChunk + 1, 3*tailChunk + 5} {
			data := append(append([]byte{}, whole...), bytes.Repeat([]byte{'{'}, torn)...)
			matchRepair(t, fmt.Sprintf("jsonl lines %v torn %d", lines, torn), data, truncateTornTail, refTruncateTornTail)
		}
	}

	frame := validColumnarSeedFrame(t)
	big := sizedFrame(t, "big", 9.5, 3*frameChunk)
	overflow := bytes.Repeat([]byte{0xff}, 10)
	cases := map[string][]byte{
		"empty":               nil,
		"one frame":           frame,
		"frames":              frames(frame, big, frame),
		"torn length":         frames(frame, []byte{0x80}),
		"torn crc":            frames(frame, frame[:3]),
		"torn payload":        frames(frame, big[:len(big)/2]),
		"torn big frame":      frames(big, big[:len(big)-1]),
		"ten-byte varint":     frames(frame, overflow),
		"overflow mid-file":   frames(frame, overflow, []byte{0x01}, frame),
		"claim past the file": frames(frame, []byte{0xfe, 0xff, 0xff, 0xff, 0x0f}, frame),
		"claim over 1 GiB":    frames(frame, []byte{0x81, 0x80, 0x80, 0x80, 0x04, 1, 2, 3, 4}),
	}
	for name, data := range cases {
		matchRepair(t, name, data, truncateTornFrames, refTruncateTornFrames)
	}
}
