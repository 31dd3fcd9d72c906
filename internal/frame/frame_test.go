package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"testing"
	"testing/iotest"
)

var updateCorpus = flag.Bool("update", false, "rewrite the committed fuzz seed corpus under testdata/fuzz from the in-code seeds")

// refParse is the byte-slice parse the Reader is held to. It returns
// the payloads of b's frames up to the first that does not read, then
// how the read ends there — "eof" after the last frame, "torn" inside
// a frame, or the error text of a malformed or oversized header or a
// CRC mismatch — and the offset of the torn trailing frame that
// TornOffset cuts at, -1 when none is torn. TornOffset walks on past a
// CRC mismatch and stops at a bad header.
func refParse(b []byte) (payloads [][]byte, end string, tornAt int64) {
	for off := 0; off < len(b); {
		n, k := binary.Uvarint(b[off:])
		if k < 0 || k > 0 && n > MaxPayload {
			if end == "" {
				end = fmt.Sprintf("malformed frame length at offset %d", off)
				if k > 0 {
					end = fmt.Sprintf("frame of %d bytes at offset %d exceeds limit", n, off)
				}
			}
			return payloads, end, -1
		}
		if k == 0 || uint64(len(b)-off-k) < 4+n {
			if end == "" {
				end = "torn"
			}
			return payloads, end, int64(off)
		}
		payload := b[off+k+4 : off+k+4+int(n)]
		if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(b[off+k:]); end == "" && got != want {
			end = fmt.Sprintf("frame at offset %d: crc %08x != recorded %08x", off, got, want)
		}
		if end == "" {
			payloads = append(payloads, payload)
		}
		off += k + 4 + int(n)
	}
	if end == "" {
		end = "eof"
	}
	return payloads, end, -1
}

// feeds are the ways a stream's bytes reach the Reader: whole, a byte
// per read, half of what each read asks, and the last bytes with
// io.EOF.
var feeds = []struct {
	name string
	feed func(b []byte) io.Reader
}{
	{"whole", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"one-byte", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
	{"half", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }},
	{"data-err", func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) }},
}

// matchParse reads data with Next from every feed, its size declared
// and undeclared, and fails unless each read returns the reference's
// payloads, then ends as it ends; and unless TornOffset cuts where it
// cuts.
func matchParse(t *testing.T, data []byte) {
	t.Helper()
	want, wantEnd, wantTorn := refParse(data)
	for _, f := range feeds {
		for _, size := range []int64{int64(len(data)), -1} {
			r := NewReader(f.feed(data), size, nil)
			var got [][]byte
			var err error
			for {
				var p []byte
				if p, err = r.Next(); err != nil {
					break
				}
				got = append(got, slices.Clone(p))
			}
			end := err.Error()
			switch {
			case err == io.EOF:
				end = "eof"
			case errors.Is(err, ErrTorn):
				end = "torn"
			}
			if end != wantEnd || !slices.EqualFunc(got, want, bytes.Equal) {
				t.Fatalf("%s feed, size %d: %d frames then %q; the reference reads %d then %q", f.name, size, len(got), end, len(want), wantEnd)
			}
		}
	}
	if got, err := TornOffset(bytes.NewReader(data), int64(len(data))); err != nil || got != wantTorn {
		t.Fatalf("TornOffset = %d, %v; the reference cuts at %d", got, err, wantTorn)
	}
}

// appendFrame frames a raw payload whatever its length.
func appendFrame(dst, payload []byte) []byte {
	b, _ := Append(dst, func(b []byte) ([]byte, error) { return append(b, payload...), nil })
	return b
}

// readerSeeds is the seed corpus, keyed by committed file name: frames
// of several lengths, cut at every kind of edge, corrupt and hostile.
func readerSeeds() map[string][]byte {
	small := appendFrame(nil, []byte("payload"))
	big := appendFrame(nil, bytes.Repeat([]byte{0x5a}, 700))
	frames := appendFrame(appendFrame(slices.Clone(small), nil), bytes.Repeat([]byte{1}, 200))
	flipped := slices.Clone(small)
	flipped[len(flipped)-1] ^= 1
	return map[string][]byte{
		"seed-empty":             {},
		"seed-empty-payload":     appendFrame(nil, nil),
		"seed-one":               small,
		"seed-frames":            frames,
		"seed-big":               big,
		"seed-torn-length":       append(slices.Clone(small), 0x80),
		"seed-torn-crc":          append(slices.Clone(small), big[:4]...),
		"seed-torn-payload":      append(slices.Clone(small), big[:len(big)/2]...),
		"seed-flipped-crc":       flipped,
		"seed-flipped-then-torn": append(slices.Clone(flipped), small[:3]...),
		"seed-overflow":          append(slices.Clone(small), bytes.Repeat([]byte{0xff}, 11)...),
		"seed-over-limit":        append(binary.AppendUvarint(nil, MaxPayload+1), 0, 0, 0, 0, 1, 2, 3),
		"seed-limit-claim":       append(binary.AppendUvarint(nil, MaxPayload), 0, 0, 0, 0, 1, 2, 3),
	}
}

func FuzzReader(f *testing.F) {
	seeds := readerSeeds()
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(seeds[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		matchParse(t, data)
	})
}

// TestReaderSeedCorpusCommitted keeps the committed seed corpus
// (testdata/fuzz/FuzzReader) in lockstep with the in-code seeds; run
// with -update to regenerate the files.
func TestReaderSeedCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzReader")
	for name, data := range readerSeeds() {
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

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestReaderGrowth holds the buffer to its one rule: a frame the
// declared size holds is read into a buffer of its length and a
// sixteenth; a claim that runs past the declared size is torn before
// its bytes are read; an undeclared claim, or one over 64 MiB that a
// declared size would hold, grows the buffer only as its bytes arrive;
// and a claim over MaxPayload is refused once its length is read.
func TestReaderGrowth(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 40000)
	whole := appendFrame(nil, payload)
	claim := append(binary.AppendUvarint(nil, MaxPayload), 0, 0, 0, 0)
	claim = append(claim, make([]byte, 100000)...)
	big := append(binary.AppendUvarint(nil, 100<<20), 0, 0, 0, 0)
	big = append(big, make([]byte, 1000)...)
	over := append(binary.AppendUvarint(nil, MaxPayload+1), 0, 0, 0, 0)
	over = append(over, make([]byte, 100000)...)
	for _, c := range []struct {
		name     string
		data     []byte
		size     int64
		err      error
		maxCap   int
		maxBytes int // read from the source
	}{
		{"declared frame", whole, int64(len(whole)), nil, len(whole) + len(whole)/16, len(whole)},
		{"claim past the declared size", claim, int64(len(claim)), ErrTorn, 512, 512},
		{"undeclared claim", claim, -1, ErrTorn, 2 * len(claim), len(claim)},
		{"claim over 64 MiB in a declared terabyte", big, 1 << 40, ErrTorn, 2 * len(big), len(big)},
		{"undeclared claim over the limit", over, -1, nil, 512, binary.MaxVarintLen64},
	} {
		t.Run(c.name, func(t *testing.T) {
			src := &countingReader{r: iotest.OneByteReader(bytes.NewReader(c.data))}
			r := NewReader(src, c.size, nil)
			p, err := r.Next()
			switch {
			case c.name == "undeclared claim over the limit":
				if err == nil || errors.Is(err, ErrTorn) {
					t.Fatalf("Next = %v, want the limit's error", err)
				}
			case err != c.err:
				t.Fatalf("Next = %d bytes, %v; want %v", len(p), err, c.err)
			case err == nil && !bytes.Equal(p, payload):
				t.Fatal("Next returned another payload")
			}
			if got := cap(r.Buffer()); got > c.maxCap {
				t.Errorf("the buffer grew to %d bytes, want at most %d", got, c.maxCap)
			}
			if src.n > c.maxBytes {
				t.Errorf("read %d bytes of the source, want at most %d", src.n, c.maxBytes)
			}
		})
	}
}

// TestReaderEnvelope reads the items a stream carries between frames:
// bytes, uvarints and strs, and how each meets the stream's end.
func TestReaderEnvelope(t *testing.T) {
	b := binary.AppendUvarint([]byte{9}, 300)
	b = AppendString(b, "label")
	b = appendFrame(b, []byte("payload"))
	if got := len(b); got != 1+UvarintLen(300)+StringLen("label")+Len(len("payload")) {
		t.Fatalf("the stream is %d bytes, its lengths add up to another", got)
	}
	for _, f := range feeds {
		for _, size := range []int64{int64(len(b)), -1} {
			r := NewReader(f.feed(b), size, nil)
			c, err := r.ReadByte()
			if err != nil || c != 9 {
				t.Fatalf("%s, size %d: ReadByte = %d, %v", f.name, size, c, err)
			}
			if v, err := r.Uvarint(); err != nil || v != 300 {
				t.Fatalf("%s, size %d: Uvarint = %d, %v", f.name, size, v, err)
			}
			if s, err := r.Str(); err != nil || string(s) != "label" {
				t.Fatalf("%s, size %d: Str = %q, %v", f.name, size, s, err)
			}
			if p, err := r.Next(); err != nil || string(p) != "payload" {
				t.Fatalf("%s, size %d: Next = %q, %v", f.name, size, p, err)
			}
			if r.Offset() != int64(len(b)) {
				t.Fatalf("%s, size %d: offset %d at the end of %d bytes", f.name, size, r.Offset(), len(b))
			}
			if _, err := r.ReadByte(); err != io.EOF {
				t.Fatalf("%s, size %d: ReadByte at the end = %v, want io.EOF", f.name, size, err)
			}
			if _, err := r.Uvarint(); err != ErrTorn {
				t.Fatalf("%s, size %d: Uvarint at the end = %v, want ErrTorn", f.name, size, err)
			}
		}
	}
	// Nothing past the declared size is read: a file that grew since its
	// size was taken reads as it was.
	grown := &countingReader{r: bytes.NewReader(appendFrame(slices.Clone(b), []byte("later")))}
	r := NewReader(grown, int64(len(b)), nil)
	if _, err := r.ReadByte(); err != nil {
		t.Fatal(err)
	}
	for _, read := range []func() error{
		func() error { _, err := r.Uvarint(); return err },
		func() error { _, err := r.Str(); return err },
		func() error { _, err := r.Next(); return err },
	} {
		if err := read(); err != nil {
			t.Fatal(err)
		}
	}
	if p, err := r.Next(); err != io.EOF || grown.n != len(b) {
		t.Fatalf("past the declared %d bytes: Next = %q, %v after reading %d bytes; want io.EOF after %d", len(b), p, err, grown.n, len(b))
	}
	// A str that claims more than the declared stream holds is torn; one
	// over MaxPayload is refused.
	for _, n := range []uint64{100, MaxPayload + 1} {
		s := binary.AppendUvarint(nil, n)
		if _, err := NewReader(bytes.NewReader(s), int64(len(s)), nil).Str(); err == nil {
			t.Errorf("a str claiming %d bytes in a %d-byte stream read", n, len(s))
		}
	}
}
