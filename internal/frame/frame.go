// Package frame owns the CRC frame that carries a cell record in a
// cells.col file and on the worker↔coordinator wire, and the str that
// travels beside it:
//
//	frame := uvarint(len(payload)) || crc32-IEEE(payload) LE || payload
//	str   := uvarint(len) || bytes
//
// A stream that ends inside a frame is torn (ErrTorn), so torn-tail
// recovery stays structural, while a malformed or oversized header and
// a CRC mismatch on a complete frame are errors naming its offset.
// What a payload holds is the caller's business.
package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
)

const (
	// MaxHeader is the widest frame header: a maximal length varint and
	// the CRC.
	MaxHeader = binary.MaxVarintLen64 + 4
	// MaxPayload bounds a frame's payload: a longer claim, or a str
	// longer than any frame, is refused once its length is read.
	MaxPayload = 1 << 30
	// maxVouched caps what a declared size may allocate before the bytes
	// arrive, so a lying Content-Length cannot size more.
	maxVouched = 64 << 20
)

// ErrTorn reports a stream that ends inside a frame or another item a
// Reader reads: a crashed writer's torn tail, or a cut answer.
var ErrTorn = errors.New("frame: stream ends inside an item")

// UvarintLen is the length of binary.AppendUvarint's encoding of v.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Len is the length of the frame around a payload of n bytes.
func Len(n int) int { return UvarintLen(uint64(n)) + 4 + n }

// AppendString appends s to dst as a str.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// StringLen is the length of s as a str.
func StringLen(s string) int { return UvarintLen(uint64(len(s))) + len(s) }

// Append appends to dst a frame around the payload that encode appends
// to the slice it is given. encode writes behind room for the widest
// header, whose gap one memmove closes, so it may write up to MaxHeader
// bytes past the frame's end. On error dst is returned unchanged.
func Append(dst []byte, encode func([]byte) ([]byte, error)) ([]byte, error) {
	start := len(dst)
	var hdr [MaxHeader]byte
	out, err := encode(append(dst, hdr[:]...))
	if err != nil {
		return dst[:start], err
	}
	payload := out[start+MaxHeader:]
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[n:], crc32.ChecksumIEEE(payload))
	n = copy(out[start:], hdr[:n+4])
	n += copy(out[start+n:], payload)
	return out[:start+n], nil
}

// header parses and bounds the frame header at the start of b, whose
// first byte is at stream offset off. It returns the header's length,
// CRC included, and the payload's; hdr is 0 while b ends inside the
// length varint.
func header(b []byte, off int64) (hdr, n int, err error) {
	v, k := binary.Uvarint(b)
	switch {
	case k == 0:
		return 0, 0, nil
	case k < 0:
		return 0, 0, fmt.Errorf("malformed frame length at offset %d", off)
	case v > MaxPayload:
		return 0, 0, fmt.Errorf("frame of %d bytes at offset %d exceeds limit", v, off)
	}
	return k + 4, int(v), nil
}

// TornOffset walks the frame headers of r, a file of size bytes, one
// header at a time, and returns the offset of its torn trailing frame,
// -1 when it has none. A bad header is mid-file corruption, left for
// the reader to report, and CRCs go unchecked: a complete but corrupt
// frame is damage, not a torn append.
func TornOffset(r io.ReaderAt, size int64) (int64, error) {
	// One byte past the widest length varint tells an overflowing
	// varint from one the file cuts short.
	var b [binary.MaxVarintLen64 + 1]byte
	for off := int64(0); off < size; {
		n, err := r.ReadAt(b[:min(int64(len(b)), size-off)], off)
		if err != nil {
			return 0, err
		}
		hdr, payload, err := header(b[:n], off)
		if err != nil {
			return -1, nil
		}
		if hdr == 0 || int64(hdr)+int64(payload) > size-off {
			return off, nil
		}
		off += int64(hdr + payload)
	}
	return -1, nil
}

// Reader reads a stream of frames, and the bytes, uvarints and strs
// between them, through one buffer: what a read returns lies in it and
// stays valid until the next read.
//
// The buffer grows by one rule. A read that needs more than it holds
// grows it to the need and a sixteenth to spare when the stream's
// declared size holds the need (up to 64 MiB), and otherwise to at most
// twice its size, so a length nothing vouches for allocates no more
// than the bytes that arrive. A Reader reads nothing past the declared
// size: a frame or str that claims to run past it is torn at once.
type Reader struct {
	src io.Reader
	// size is the stream's declared length, -1 when none was declared.
	size int64
	// buf[pos:] is read but not yet returned, and starts at stream
	// offset off.
	buf []byte
	pos int
	off int64
	// err is src's first error, io.EOF at its end or the declared size.
	err error
}

// NewReader returns a Reader of src, a stream of size bytes (-1 when
// undeclared), that reads through buf's array while it is large enough.
func NewReader(src io.Reader, size int64, buf []byte) *Reader {
	return &Reader{src: src, size: size, buf: buf[:0]}
}

// Offset is the stream offset of the next byte the Reader returns.
func (r *Reader) Offset() int64 { return r.off }

// Buffer returns the Reader's buffer, emptied, for another to reuse.
func (r *Reader) Buffer() []byte { return r.buf[:0] }

// ReadByte reads a byte; it returns io.EOF at the stream's end.
func (r *Reader) ReadByte() (byte, error) {
	if !r.fill(1) {
		return 0, r.ended(false)
	}
	r.consume(1)
	return r.buf[r.pos-1], nil
}

// Uvarint reads a uvarint; the stream's end before or inside it is torn.
func (r *Reader) Uvarint() (uint64, error) {
	for {
		v, k := binary.Uvarint(r.buf[r.pos:])
		if k < 0 {
			return 0, fmt.Errorf("malformed varint at offset %d", r.off)
		}
		if k > 0 {
			r.consume(k)
			return v, nil
		}
		if !r.fill(len(r.buf) - r.pos + 1) {
			return 0, r.ended(true)
		}
	}
}

// Str reads a str and returns its bytes.
func (r *Reader) Str() ([]byte, error) {
	n, err := r.Uvarint()
	if err == nil {
		err = r.claim(n)
	}
	if err != nil {
		return nil, err
	}
	r.consume(int(n))
	return r.buf[r.pos-int(n) : r.pos], nil
}

// Next reads the next frame, the one place a Reader parses, bounds and
// checks one, and returns its payload. It returns io.EOF when the
// stream ends before the frame and ErrTorn when it ends inside it.
func (r *Reader) Next() ([]byte, error) {
	var hdr, n int
	for hdr == 0 {
		var err error
		if hdr, n, err = header(r.buf[r.pos:], r.off); err != nil {
			return nil, err
		}
		if hdr == 0 && !r.fill(len(r.buf)-r.pos+1) {
			return nil, r.ended(len(r.buf) > r.pos)
		}
	}
	if err := r.claim(uint64(hdr + n)); err != nil {
		return nil, err
	}
	frame := r.buf[r.pos : r.pos+hdr+n]
	if got, want := crc32.ChecksumIEEE(frame[hdr:]), binary.LittleEndian.Uint32(frame[hdr-4:]); got != want {
		return nil, fmt.Errorf("frame at offset %d: crc %08x != recorded %08x", r.off, got, want)
	}
	r.consume(hdr + n)
	return frame[hdr:], nil
}

func (r *Reader) consume(n int) {
	r.pos += n
	r.off += int64(n)
}

// claim buffers the next n bytes, a frame or a str's bytes. A claim
// longer than any frame is refused, and one that runs past the declared
// size is torn, before anything is read for it.
func (r *Reader) claim(n uint64) error {
	switch {
	case n > MaxHeader+MaxPayload:
		return fmt.Errorf("%d bytes claimed at offset %d exceed the limit", n, r.off)
	case r.size >= 0 && n > uint64(r.size-r.off):
		return ErrTorn
	case !r.fill(int(n)):
		return r.ended(true)
	}
	return nil
}

// ended is the error of a read the stream's end cut short: src's own
// error, else ErrTorn when part of the item arrived and io.EOF when
// none of it did.
func (r *Reader) ended(partial bool) error {
	switch {
	case r.err != io.EOF:
		return r.err
	case partial:
		return ErrTorn
	}
	return io.EOF
}

// fill reads until the buffer holds need unread bytes and reports
// whether it does; when it does not, r.err says how the stream ended.
func (r *Reader) fill(need int) bool {
	for len(r.buf)-r.pos < need {
		// left is the declared size past the buffered bytes.
		left := r.size - r.off - int64(len(r.buf)-r.pos)
		if r.size >= 0 && left == 0 {
			r.err = io.EOF
		}
		if r.err != nil {
			return false
		}
		if len(r.buf) == cap(r.buf) {
			r.grow(need)
		}
		room := r.buf[len(r.buf):cap(r.buf)]
		if r.size >= 0 && int64(len(room)) > left {
			room = room[:left]
		}
		n, err := r.src.Read(room)
		r.buf = r.buf[:len(r.buf)+n]
		if err != nil {
			r.err = err
		}
	}
	return true
}

// grow makes room in a full buffer for need unread bytes: it moves them
// to its front when it can hold need, else to a buffer sized by the
// rule, at least bytes.MinRead.
func (r *Reader) grow(need int) {
	size := cap(r.buf)
	if need > size {
		size = max(need+need/16, bytes.MinRead)
		if r.size < 0 || int64(need) > r.size-r.off || size > maxVouched {
			size = int(min(int64(size), max(2*int64(cap(r.buf)), bytes.MinRead)))
		}
	}
	if size == cap(r.buf) {
		r.buf = r.buf[:copy(r.buf, r.buf[r.pos:])]
	} else {
		r.buf = append(make([]byte, 0, size), r.buf[r.pos:]...)
	}
	r.pos = 0
}
