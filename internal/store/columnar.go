package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
	"slices"

	"cloudvar/internal/trace"
	"cloudvar/internal/workload"
)

// Columnar cell encoding: the week-long-campaign storage format, and
// the only form a cell record takes outside memory in a columnar
// campaign — on disk, on the worker↔coordinator wire (ShardData and
// internal/shard's execute answers carry these frames) and inside the
// merge.
//
// JSONL spends ~17 bytes of decimal text per float; a campaign bin
// series is smooth (bandwidth wobbles around a plateau, time advances
// by a constant), so transposing the points into per-field columns and
// delta-encoding each column shrinks a cell severalfold while staying
// bit-exact: floats are delta-encoded on their IEEE-754 bit patterns
// (wrapping uint64 subtraction, zigzag varint), never on their values,
// so every float — NaN payloads included — round-trips identically.
// Columns are coded a word at a time, deltaChunk values per step, with
// exactly the bytes encoding/binary writes and the inputs it accepts.
//
// File layout (cells.col, append-only, one frame per cell):
//
//	frame    := uvarint(len(payload)) || crc32-IEEE(payload) LE || payload
//	payload  := uvarint(cellSchema)
//	            str(label) str(cloud) str(instance) str(regime)
//	            uvarint(rep)
//	            str(seriesLabel) float64bits(intervalSec) LE
//	            uvarint(npoints)
//	            fcol(TimeSec) fcol(BandwidthGbps) icol(Retransmissions)
//	            fcol(RTTms) fcol(CPUFrac)
//	            workload
//	workload := byte(0)                               (no workload)
//	          | byte(2) ulen(clients) client*
//	          | byte(1) uvarint(len) json(workload)   (read only)
//	client   := str(id) str(class) ulen(latencies) lcol
//	str      := uvarint(len) || bytes
//	ulen     := uvarint(0) for a nil slice | uvarint(n+1) for n elements
//	fcol     := npoints × varint(bits_i - bits_{i-1})   (wrapping, bits_{-1}=0)
//	lcol     := the same delta coding over one client's latencies
//	icol     := npoints × varint(v_i - v_{i-1})         (v_{-1}=0)
//
// The CRC rides inside the frame so torn-tail recovery stays purely
// structural (same contract as JSONL's "drop text after the last
// newline"): an interrupted append is truncated at the frame start,
// while a CRC or decode failure on a *complete* frame is loud
// corruption, never silently dropped. Workload latencies are columns
// like the series: ulen keeps nil and empty slices apart, so a decoded
// record re-marshals to the same JSON as the one encoded. Flag 1 (the
// workload as a JSON blob) is what stores written before flag 2 hold;
// it is still read, and the merge rewrites such cells as flag 2. An
// empty series decodes with nil Points.

// Cell-encoding names as stamped in the manifest. The empty string
// means JSONL so every pre-columnar manifest reads back unchanged.
const (
	EncodingJSONL    = ""
	EncodingColumnar = "columnar"
)

// NormalizeEncoding folds the explicit default spelling ("jsonl")
// onto "" and rejects unknown encodings — exported so the spec layer
// can validate an encoding: field without opening a store.
func NormalizeEncoding(enc string) (string, error) {
	switch enc {
	case "", "jsonl":
		return EncodingJSONL, nil
	case EncodingColumnar:
		return EncodingColumnar, nil
	}
	return "", fmt.Errorf("store: unknown cell encoding %q (want jsonl or columnar)", enc)
}

// cellsFileName returns the cell file for an encoding.
func cellsFileName(enc string) string {
	if enc == EncodingColumnar {
		return "cells.col"
	}
	return "cells.jsonl"
}

// caps against adversarial lengths: a decoder must never allocate more
// than the input could possibly justify.
const (
	maxColumnarString = 1 << 16 // cell labels, regime names
	maxColumnarFrame  = 1 << 30
)

// frameRefusal is the error AppendCellFrame refuses rec with, nil when
// rec has a frame: a record without a series, or a label or workload
// client name the decoder would refuse as too long.
func frameRefusal(rec CellRecord) error {
	if rec.Series == nil {
		return fmt.Errorf("store: cell %s has no series", rec.Label)
	}
	if len(rec.Label) > maxColumnarString || len(rec.Series.Label) > maxColumnarString {
		return fmt.Errorf("store: cell %s: label too long to encode", rec.Label)
	}
	if rec.Workload != nil {
		for _, c := range rec.Workload.Clients {
			if len(c.ID) > maxColumnarString || len(c.Class) > maxColumnarString {
				return fmt.Errorf("store: cell %s: workload client name too long to encode", rec.Label)
			}
		}
	}
	return nil
}

// encodeCellPayload appends rec's columnar payload (no framing) to dst.
func encodeCellPayload(dst []byte, rec CellRecord) ([]byte, error) {
	if err := frameRefusal(rec); err != nil {
		return nil, err
	}
	pts := rec.Series.Points
	dst = binary.AppendUvarint(dst, uint64(rec.Schema))
	dst = appendString(dst, rec.Label)
	dst = appendString(dst, rec.Cloud)
	dst = appendString(dst, rec.Instance)
	dst = appendString(dst, rec.Regime)
	dst = binary.AppendUvarint(dst, uint64(rec.Rep))
	dst = appendString(dst, rec.Series.Label)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.Series.IntervalSec))
	dst = binary.AppendUvarint(dst, uint64(len(pts)))
	for f := range pointFields {
		dst = appendColumn(dst, column{field: f, pts: pts})
	}
	if rec.Workload == nil {
		return append(dst, 0), nil
	}
	dst = append(dst, 2)
	clients := rec.Workload.Clients
	dst = appendLen(dst, clients == nil, len(clients))
	for _, c := range clients {
		dst = appendString(dst, c.ID)
		dst = appendString(dst, c.Class)
		dst = appendLen(dst, c.LatencyMs == nil, len(c.LatencyMs))
		dst = appendColumn(dst, column{field: floatsField, floats: c.LatencyMs})
	}
	return dst, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendLen appends a ulen: 0 for a nil slice, n+1 for n elements.
func appendLen(dst []byte, isNil bool, n int) []byte {
	if isNil {
		return append(dst, 0)
	}
	return binary.AppendUvarint(dst, uint64(n)+1)
}

// frameHeaderMax is the widest frame header: a maximal length varint
// and the CRC.
const frameHeaderMax = binary.MaxVarintLen64 + 4

// AppendCellFrame appends rec to dst as one complete frame — a
// cells.col record, and the unit a cell record crosses the wire in.
// On error dst is returned unchanged.
func AppendCellFrame(dst []byte, rec CellRecord) ([]byte, error) {
	// Encode the payload behind room for the widest header, then close
	// the gap once its length (and so the header's width) is known:
	// one memmove instead of a scratch buffer and a copy.
	start := len(dst)
	var hdr [frameHeaderMax]byte
	out, err := encodeCellPayload(append(dst, hdr[:]...), rec)
	if err != nil {
		return dst[:start], err
	}
	payload := out[start+frameHeaderMax:]
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[n:], crc32.ChecksumIEEE(payload))
	n = copy(out[start:], hdr[:n+4])
	n += copy(out[start+n:], payload)
	return out[:start+n], nil
}

// CellFrameLen returns the length of the frame AppendCellFrame appends
// for rec, so a caller can size one buffer for many frames. While it
// encodes, AppendCellFrame writes up to CellFrameHeadroom bytes past
// the frame's end, so such a buffer needs that much spare capacity
// too. A record AppendCellFrame refuses has no frame: its length here
// is 0, which no frame has.
func CellFrameLen(rec CellRecord) int {
	if frameRefusal(rec) != nil {
		return 0
	}
	n := cellPayloadLen(rec)
	return uvarintLen(uint64(n)) + 4 + n
}

// CellFrameHeadroom is the spare capacity, beyond the total of their
// CellFrameLen, that a buffer needs to take frames without growing:
// AppendCellFrame encodes behind a reserved widest header and then
// closes the gap.
const CellFrameHeadroom = frameHeaderMax

// cellPayloadLen is the length of encodeCellPayload's output for rec,
// computed field by field in the same order.
func cellPayloadLen(rec CellRecord) int {
	pts := rec.Series.Points
	n := uvarintLen(uint64(rec.Schema)) +
		stringLen(rec.Label) + stringLen(rec.Cloud) + stringLen(rec.Instance) + stringLen(rec.Regime) +
		uvarintLen(uint64(rec.Rep)) +
		stringLen(rec.Series.Label) + 8 +
		uvarintLen(uint64(len(pts)))
	for f := range pointFields {
		n += columnLen(column{field: f, pts: pts})
	}
	n++ // workload flag
	if rec.Workload == nil {
		return n
	}
	clients := rec.Workload.Clients
	n += lenLen(clients == nil, len(clients))
	for _, c := range clients {
		n += stringLen(c.ID) + stringLen(c.Class) + lenLen(c.LatencyMs == nil, len(c.LatencyMs))
		n += columnLen(column{field: floatsField, floats: c.LatencyMs})
	}
	return n
}

// uvarintLen is the length of binary.AppendUvarint's encoding of v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// lenLen is the length of appendLen's encoding.
func lenLen(isNil bool, n int) int {
	if isNil {
		return 1
	}
	return uvarintLen(uint64(n) + 1)
}

// Column kernels. Every fcol, icol and lcol has one coding: zigzag
// varints of the wrapping differences between consecutive 64-bit
// words, a float's IEEE-754 bits or an int's two's complement. A
// column moves between a record and its bytes deltaChunk values at a
// time through a stack array of words, gathered from or scattered to
// one trace.Point field or one client's LatencyMs, so the kernels run
// with no closure call, no per-value error and no heap scratch. They
// code a varint of up to 8 bytes with one 8-byte load or store and
// leave wider varints, and those within 8 bytes of the end of the
// payload or of the buffer's capacity, to encoding/binary: the bytes
// written and the inputs accepted are exactly encoding/binary's.

// deltaChunk is how many values of a column the kernels take per step.
const deltaChunk = 256

// Column fields: the series columns in payload order, then a column
// held as a []float64 of its own — a client's latencies, or a
// bandwidth column read without the rest of its series.
const (
	timeField = iota
	bandwidthField
	retransmissionsField
	rttField
	cpuField
	floatsField
)

// pointFields names the series columns, indexed by field.
var pointFields = [...]string{"time column", "bandwidth column", "retransmissions column", "rtt column", "cpu column"}

// column is one delta-coded column of a record: field of pts, or
// floats when field is floatsField.
type column struct {
	field  int
	pts    []trace.Point
	floats []float64
}

func (c column) len() int {
	if c.field == floatsField {
		return len(c.floats)
	}
	return len(c.pts)
}

// gather loads the column's values i to i+len(words)-1 into words.
func (c column) gather(words []uint64, i int) {
	if c.field == floatsField {
		for j, v := range c.floats[i : i+len(words)] {
			words[j] = math.Float64bits(v)
		}
		return
	}
	pts := c.pts[i : i+len(words)]
	switch c.field {
	case timeField:
		for j := range pts {
			words[j] = math.Float64bits(pts[j].TimeSec)
		}
	case bandwidthField:
		for j := range pts {
			words[j] = math.Float64bits(pts[j].BandwidthGbps)
		}
	case retransmissionsField:
		for j := range pts {
			words[j] = uint64(pts[j].Retransmissions)
		}
	case rttField:
		for j := range pts {
			words[j] = math.Float64bits(pts[j].RTTms)
		}
	case cpuField:
		for j := range pts {
			words[j] = math.Float64bits(pts[j].CPUFrac)
		}
	}
}

// scatter stores words as the column's values i to i+len(words)-1.
func (c column) scatter(words []uint64, i int) {
	if c.field == floatsField {
		floats := c.floats[i : i+len(words)]
		for j, w := range words {
			floats[j] = math.Float64frombits(w)
		}
		return
	}
	pts := c.pts[i : i+len(words)]
	switch c.field {
	case timeField:
		for j, w := range words {
			pts[j].TimeSec = math.Float64frombits(w)
		}
	case bandwidthField:
		for j, w := range words {
			pts[j].BandwidthGbps = math.Float64frombits(w)
		}
	case retransmissionsField:
		for j, w := range words {
			pts[j].Retransmissions = int(w)
		}
	case rttField:
		for j, w := range words {
			pts[j].RTTms = math.Float64frombits(w)
		}
	case cpuField:
		for j, w := range words {
			pts[j].CPUFrac = math.Float64frombits(w)
		}
	}
}

// appendColumn appends c's varints to dst.
func appendColumn(dst []byte, c column) []byte {
	var words [deltaChunk]uint64
	prev := uint64(0)
	for i, n := 0, c.len(); i < n; i += deltaChunk {
		w := words[:min(n-i, deltaChunk)]
		c.gather(w, i)
		dst, prev = appendDeltas(dst, w, prev)
	}
	return dst
}

// columnLen is the length of appendColumn's encoding of c.
func columnLen(c column) int {
	var words [deltaChunk]uint64
	size, prev := 0, uint64(0)
	for i, n := 0, c.len(); i < n; i += deltaChunk {
		w := words[:min(n-i, deltaChunk)]
		c.gather(w, i)
		for _, v := range w {
			size += uvarintLen(zigzag(v - prev))
			prev = v
		}
	}
	return size
}

// column decodes c's varints at the cursor into c's values.
func (r *colReader) column(c column) error {
	var words [deltaChunk]uint64
	prev := uint64(0)
	for i, n := 0, c.len(); i < n; i += deltaChunk {
		w := words[:min(n-i, deltaChunk)]
		var err error
		if r.off, prev, err = decodeDeltas(r.b, r.off, w, prev); err != nil {
			return err
		}
		c.scatter(w, i)
	}
	return nil
}

// zigzag is the uvarint binary.AppendVarint writes for the wrapping
// difference d: small magnitudes of either sign become small values.
func zigzag(d uint64) uint64 { return d<<1 ^ uint64(int64(d)>>63) }

// appendDeltas is the encode kernel. It appends the zigzag varint of
// each word's wrapping difference from the one before it (prev before
// the first) and returns dst and the last word. A varint of up to 8
// bytes has its 7-bit groups spread one to a byte by three
// mask-and-shift steps and is written with one 8-byte store while dst
// has 8 bytes of spare capacity; the store's zero bytes past the varint
// stay beyond len(dst).
func appendDeltas(dst []byte, words []uint64, prev uint64) ([]byte, uint64) {
	for _, w := range words {
		u := zigzag(w - prev)
		prev = w
		n := len(dst)
		if u >= 1<<56 || cap(dst)-n < 8 {
			dst = binary.AppendUvarint(dst, u)
			continue
		}
		x := u&0x000000000fffffff | (u&0x00fffffff0000000)<<4
		x = x&0x00003fff00003fff | (x&0x0fffc0000fffc000)<<2
		x = x&0x007f007f007f007f | (x&0x3f803f803f803f80)<<1
		size := uvarintLen(u)
		x |= 0x8080808080808080 & (uint64(1)<<(8*size-8) - 1) // stop bits on all but the last byte
		binary.LittleEndian.PutUint64(dst[n:n+8], x)
		dst = dst[:n+size]
	}
	return dst, prev
}

// decodeDeltas is the decode kernel, appendDeltas' inverse. It fills
// words from the varints at b[off:], accumulating their zigzag
// differences from prev, and returns the offset past the last varint
// and the last word. A varint that ends within the 8-byte word loaded
// at off takes its length from the first byte with a clear stop bit,
// and three mask-and-shift steps pack its 7-bit groups. A 9- or 10-byte
// varint, and one that starts fewer than 8 bytes before the end of b,
// goes through binary.Uvarint. On error the offset is the refused
// varint's.
func decodeDeltas(b []byte, off int, words []uint64, prev uint64) (int, uint64, error) {
	for i := range words {
		var x, stops uint64
		if off <= len(b)-8 {
			x = binary.LittleEndian.Uint64(b[off:])
			stops = ^x & 0x8080808080808080
		}
		var u uint64
		if stops != 0 {
			end := bits.TrailingZeros64(stops) + 1 // the varint's length in bits
			x &= uint64(0x7f7f7f7f7f7f7f7f) >> (64 - end)
			x = x&0x007f007f007f007f | (x&0x7f007f007f007f00)>>1
			x = x&0x00003fff00003fff | (x&0x3fff00003fff0000)>>2
			u = x&0x000000000fffffff | (x&0x0fffffff00000000)>>4
			off += end >> 3
		} else {
			v, n := binary.Uvarint(b[off:])
			if n <= 0 {
				return off, prev, varintError("varint", off, n)
			}
			u = v
			off += n
		}
		prev += u>>1 ^ -(u & 1)
		words[i] = prev
	}
	return off, prev, nil
}

// skipDeltas is the skip kernel: it steps over n varints at b[off:]
// without decoding them and returns the offset past the last,
// accepting and refusing exactly the bytes decodeDeltas does. It loads
// b at a fixed 8-byte stride, so no load waits on the one before it,
// and counts the varints that end in each word by a popcount of its
// clear stop bits. A varint of up to 8 bytes is always well formed;
// one that runs longer, found when the bytes since the last stop reach
// 8, goes through binary.Uvarint, as does every varint that starts
// fewer than 8 bytes before the end of b. On error the offset is the
// refused varint's.
func skipDeltas(b []byte, off, n int) (int, error) {
	// The varint being stepped over starts trail bytes before p.
	p, trail := off, 0
	for n > 0 {
		for p <= len(b)-8 {
			stops := ^binary.LittleEndian.Uint64(b[p:]) & 0x8080808080808080
			if trail+bits.TrailingZeros64(stops)>>3 >= 8 {
				break // a varint longer than 8 bytes
			}
			ends := bits.OnesCount64(stops)
			if ends >= n {
				for ; n > 1; n-- {
					stops &= stops - 1
				}
				return p + (bits.TrailingZeros64(stops)+1)>>3, nil // past the nth end
			}
			n -= ends
			trail = (64 - bits.Len64(stops)) >> 3
			p += 8
		}
		start := p - trail
		_, m := binary.Uvarint(b[start:])
		if m <= 0 {
			return start, varintError("varint", start, m)
		}
		p, trail = start+m, 0
		n--
	}
	return p, nil
}

// DecodeCellFrame decodes the complete frame at the start of b and
// returns its record and the frame's length in bytes. It is the strict
// reader for frames that arrive whole (ShardData, execute answers):
// a frame cut short anywhere, a CRC mismatch, an undecodable payload
// or a schema this binary does not speak is an error.
func DecodeCellFrame(b []byte) (CellRecord, int, error) {
	payloadStart, payloadLen, torn, err := nextFrame(b, 0)
	if err != nil {
		return CellRecord{}, 0, err
	}
	if torn {
		return CellRecord{}, 0, fmt.Errorf("frame truncated: %d bytes hold no complete frame", len(b))
	}
	rec, err := decodeFrame(b, payloadStart, payloadLen, decodeCellPayload)
	if err != nil {
		return CellRecord{}, 0, err
	}
	return rec, payloadStart + payloadLen, nil
}

// decodeFrame checks the CRC of the complete frame whose payload is
// b[payloadStart:payloadStart+payloadLen], decodes the payload with
// decode, and refuses a schema outside this binary's range.
func decodeFrame(b []byte, payloadStart, payloadLen int, decode func(payload []byte) (CellRecord, error)) (CellRecord, error) {
	payload := b[payloadStart : payloadStart+payloadLen]
	if got, want := crc32.ChecksumIEEE(payload), frameCRC(b, payloadStart); got != want {
		return CellRecord{}, fmt.Errorf("crc %08x != recorded %08x", got, want)
	}
	rec, err := decode(payload)
	if err != nil {
		return CellRecord{}, err
	}
	if rec.Schema < MinSchemaVersion || rec.Schema > SchemaVersion {
		return CellRecord{}, fmt.Errorf("cell %q has schema %d, this binary speaks %d-%d",
			rec.Label, rec.Schema, MinSchemaVersion, SchemaVersion)
	}
	return rec, nil
}

// colReader is a bounds-checked cursor over a payload.
type colReader struct {
	b   []byte
	off int
}

func (r *colReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, varintError("uvarint", r.off, n)
	}
	r.off += n
	return v, nil
}

// varintError names why binary.Uvarint refused the varint at off: it
// returns n == 0 for one the payload cuts short and n < 0 for one that
// overflows 64 bits.
func varintError(kind string, off, n int) error {
	if n < 0 {
		return fmt.Errorf("overflowing %s at offset %d", kind, off)
	}
	return fmt.Errorf("truncated %s at offset %d", kind, off)
}

func (r *colReader) str() (string, error) {
	b, err := r.strBytes()
	return string(b), err
}

// strBytes steps over a string and returns its bytes, which alias the
// payload.
func (r *colReader) strBytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxColumnarString || r.off+int(n) > len(r.b) {
		return nil, fmt.Errorf("string of %d bytes at offset %d exceeds payload", n, r.off)
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

// count reads a ulen: isNil for 0, else the element count n, refused
// unless the remaining payload could hold n elements of at least
// minBytes each. The comparison is in uint64 space — a count >= 2^63
// would wrap negative through int() and slip past an int comparison
// straight into make().
func (r *colReader) count(minBytes uint64) (n int, isNil bool, err error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, false, err
	}
	if v == 0 {
		return 0, true, nil
	}
	if v-1 > uint64(len(r.b)-r.off)/minBytes {
		return 0, false, fmt.Errorf("count %d at offset %d exceeds remaining payload %d", v-1, r.off, len(r.b)-r.off)
	}
	return int(v - 1), false, nil
}

func (r *colReader) u64le() (uint64, error) {
	if r.off+8 > len(r.b) {
		return 0, fmt.Errorf("truncated fixed64 at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *colReader) byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, fmt.Errorf("truncated byte at offset %d", r.off)
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

// header decodes a payload's header, everything before its series
// columns, and returns the point count. With series set, the record's
// Series holds the series label and interval but no points; without,
// both are checked and stepped over and Series stays nil.
func (r *colReader) header(series bool) (CellRecord, int, error) {
	var rec CellRecord
	var err error
	fail := func(what string, err error) (CellRecord, int, error) {
		return CellRecord{}, 0, fmt.Errorf("%s: %w", what, err)
	}
	schema, err := r.uvarint()
	if err != nil {
		return fail("schema", err)
	}
	rec.Schema = int(schema)
	if rec.Label, err = r.str(); err != nil {
		return fail("label", err)
	}
	if rec.Cloud, err = r.str(); err != nil {
		return fail("cloud", err)
	}
	if rec.Instance, err = r.str(); err != nil {
		return fail("instance", err)
	}
	if rec.Regime, err = r.str(); err != nil {
		return fail("regime", err)
	}
	rep, err := r.uvarint()
	if err != nil {
		return fail("rep", err)
	}
	rec.Rep = int(rep)
	label, err := r.strBytes()
	if err != nil {
		return fail("series label", err)
	}
	bits, err := r.u64le()
	if err != nil {
		return fail("interval", err)
	}
	if series {
		rec.Series = &trace.Series{Label: string(label), IntervalSec: math.Float64frombits(bits)}
	}
	n, err := r.uvarint()
	if err != nil {
		return fail("npoints", err)
	}
	// Each point costs at least 5 varint bytes (one per column), so the
	// remaining payload bounds the real point count at remaining/5;
	// anything claiming more is corrupt. Compare in uint64 space — a
	// count >= 2^63 would wrap negative through int() and slip past an
	// int comparison straight into make().
	if n > uint64(len(r.b)-r.off)/5 {
		return CellRecord{}, 0, fmt.Errorf("npoints %d exceeds remaining payload %d", n, len(r.b)-r.off)
	}
	return rec, int(n), nil
}

// workload decodes the workload that ends a payload and refuses any
// bytes after it. A flag-2 workload is decoded into s (see
// readWorkload); a flag-1 one always into arrays of its own.
func (r *colReader) workload(s *workloadScratch) (*workload.CellMetrics, error) {
	flag, err := r.byte()
	if err != nil {
		return nil, fmt.Errorf("workload flag: %w", err)
	}
	var wl *workload.CellMetrics
	switch flag {
	case 0:
	case 1:
		if wl, err = readWorkloadJSON(r); err != nil {
			return nil, fmt.Errorf("workload blob: %w", err)
		}
	case 2:
		if wl, err = readWorkload(r, s); err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
	default:
		return nil, fmt.Errorf("workload flag %d is not 0, 1 or 2", flag)
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("%d trailing bytes after record", len(r.b)-r.off)
	}
	return wl, nil
}

// decodeCellPayload decodes one complete frame payload.
func decodeCellPayload(payload []byte) (CellRecord, error) {
	r := &colReader{b: payload}
	rec, n, err := r.header(true)
	if err != nil {
		return CellRecord{}, err
	}
	// n == 0 keeps Points nil, matching what the JSONL codec restores
	// for an empty series.
	if n > 0 {
		rec.Series.Points = make([]trace.Point, n)
	}
	for f, name := range pointFields {
		if err := r.column(column{field: f, pts: rec.Series.Points}); err != nil {
			return CellRecord{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	if rec.Workload, err = r.workload(nil); err != nil {
		return CellRecord{}, err
	}
	return rec, nil
}

// decodeBandwidthPayload decodes one complete frame payload as
// decodeCellPayload does, accepting and refusing the same payloads
// with the same errors, but decodes only the bandwidth column, into
// s.bw (grown as needed), and steps over the other four with the skip
// kernel. The record has no Series, and a flag-2 workload is decoded
// into s.workload, so it and s.bw are valid until s decodes the next
// payload.
func decodeBandwidthPayload(payload []byte, s *BandwidthScratch) (CellRecord, error) {
	r := &colReader{b: payload}
	rec, n, err := r.header(false)
	if err != nil {
		return CellRecord{}, err
	}
	s.bw = slices.Grow(s.bw[:0], n)[:n]
	for f, name := range pointFields {
		if f == bandwidthField {
			err = r.column(column{field: floatsField, floats: s.bw})
		} else {
			r.off, err = skipDeltas(r.b, r.off, n)
		}
		if err != nil {
			return CellRecord{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	if rec.Workload, err = r.workload(&s.workload); err != nil {
		return CellRecord{}, err
	}
	return rec, nil
}

// workloadScratch is the part of a BandwidthScratch that flag-2
// workloads decode into: the workload, its Clients array and one array
// every client's latencies are carved from.
type workloadScratch struct {
	wl      workload.CellMetrics
	clients []workload.ClientMetrics
	lats    []float64
}

// readWorkload decodes a flag-2 workload: the client columns. With a
// nil s every slice of the result is an array of its own; with one,
// the result is s.wl, its Clients array and latency columns reused
// from the previous decode into s, and is valid until the next.
func readWorkload(r *colReader, s *workloadScratch) (*workload.CellMetrics, error) {
	// A client costs at least 3 bytes: two empty strings and a ulen.
	n, isNil, err := r.count(3)
	if err != nil {
		return nil, fmt.Errorf("clients: %w", err)
	}
	var wl *workload.CellMetrics
	var clients *[]workload.ClientMetrics
	var lats *[]float64
	if s == nil {
		wl = &workload.CellMetrics{}
	} else {
		s.clients, s.lats = s.clients[:0], s.lats[:0]
		wl, clients, lats = &s.wl, &s.clients, &s.lats
	}
	wl.Clients = carve(clients, isNil, n)
	for i := range wl.Clients {
		c := &wl.Clients[i]
		if c.ID, err = r.str(); err != nil {
			return nil, fmt.Errorf("client %d id: %w", i, err)
		}
		if c.Class, err = r.str(); err != nil {
			return nil, fmt.Errorf("client %d class: %w", i, err)
		}
		// A latency costs at least one varint byte.
		m, isNil, err := r.count(1)
		if err != nil {
			return nil, fmt.Errorf("client %d latencies: %w", i, err)
		}
		c.LatencyMs = carve(lats, isNil, m)
		if err := r.column(column{field: floatsField, floats: c.LatencyMs}); err != nil {
			return nil, fmt.Errorf("client %d latency column: %w", i, err)
		}
	}
	return wl, nil
}

// carve returns the slice a ulen of isNil and n decodes to: nil, or n
// elements. Without a buffer they get an array of their own; with one
// they are carved from *buf past its length, which grows as needed, by
// a full slice expression, so an append to them never reaches the next
// carve's. An empty slice is non-nil either way.
func carve[E any](buf *[]E, isNil bool, n int) []E {
	switch {
	case isNil:
		return nil
	case buf == nil || n == 0:
		return make([]E, n)
	}
	start := len(*buf)
	*buf = slices.Grow(*buf, n)[:start+n]
	return (*buf)[start : start+n : start+n]
}

// readWorkloadJSON decodes a flag-1 workload, the JSON blob stores
// written before flag 2 hold. Client names get the same length cap as
// flag 2's strings, so every record this reader accepts re-encodes.
func readWorkloadJSON(r *colReader) (*workload.CellMetrics, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, fmt.Errorf("length: %w", err)
	}
	// Compare in uint64 space before converting: int(n) of a huge
	// length is negative and would make the slice bound below panic.
	if n > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("%d bytes exceed payload", n)
	}
	var wl workload.CellMetrics
	if err := json.Unmarshal(r.b[r.off:r.off+int(n)], &wl); err != nil {
		return nil, err
	}
	r.off += int(n)
	for _, c := range wl.Clients {
		if len(c.ID) > maxColumnarString || len(c.Class) > maxColumnarString {
			return nil, fmt.Errorf("client name exceeds %d bytes", maxColumnarString)
		}
	}
	return &wl, nil
}

// nextFrame parses the frame header at the start of b, whose first
// byte is at offset off of its file or body, the offset its errors
// name. It returns where the frame's payload starts in b and its
// length. A frame b cuts short is torn: in its header (payloadStart and
// payloadLen are then 0) or in its payload (payloadStart+payloadLen is
// then the length b must reach to hold it). A corrupt header is an
// error. Whether b holds a frame depends only on its first
// payloadStart+payloadLen bytes, so a reader that holds a prefix of the
// input can ask again once it has read more.
func nextFrame(b []byte, off int) (payloadStart, payloadLen int, torn bool, err error) {
	n, hdr := binary.Uvarint(b)
	if hdr == 0 {
		// The varint runs off the end of b: a torn header.
		return 0, 0, true, nil
	}
	if hdr < 0 {
		return 0, 0, false, fmt.Errorf("malformed frame length at offset %d", off)
	}
	if n > maxColumnarFrame {
		return 0, 0, false, fmt.Errorf("frame of %d bytes at offset %d exceeds limit", n, off)
	}
	payloadStart = hdr + 4
	return payloadStart, int(n), payloadStart+int(n) > len(b), nil
}

// frameCRC reads the stored checksum of the frame whose payload starts
// at payloadStart.
func frameCRC(b []byte, payloadStart int) uint32 {
	return binary.LittleEndian.Uint32(b[payloadStart-4:])
}

// frameChunk is the least window a cells file larger than it is read
// through: the read-ahead between frames. A frame larger than the
// window grows it.
const frameChunk = 64 << 10

// readFrames decodes every complete frame of the cells.col file r
// reads, in order, with decodeFrame and decode, and calls keep with
// the first record of each label (later appends of a label can only
// come from concurrent writers). It ignores a structurally torn tail
// (a crashed writer: the interrupted cell re-executes on resume) but
// fails loudly on a corrupt complete frame (a CRC mismatch or an
// undecodable payload), naming its file offset, as the JSONL reader
// fails on a bad line. It reads r to EOF.
//
// The file passes through *window, which the read reuses and leaves
// behind for the next: the bytes after the frame being decoded are
// moved to its front and more are read behind them. The window grows
// only when it is full and the frame at its front needs more: to that
// frame's length with a sixteenth to spare when the file's size (-1
// when unknown) says the frame lies inside it, else to at most twice
// its size, so a length field claiming more than the file holds
// allocates no more than the bytes that arrive. decode sees the
// payload in the window, so what keep receives must not alias it.
func readFrames(r io.Reader, size int64, window *[]byte, decode func(payload []byte) (CellRecord, error), keep func(CellRecord)) error {
	buf := (*window)[:0]
	defer func() { *window = buf[:0] }()
	seen := make(map[string]bool)
	pos, off, eof := 0, 0, false
	for {
		payloadStart, payloadLen, torn, err := nextFrame(buf[pos:], off)
		if err != nil {
			return err
		}
		if torn {
			if eof {
				return nil // a torn tail, or the end of the file: every frame before it is intact
			}
			// Refill: a torn header needs one more byte, a torn payload the
			// rest of its frame.
			need := max(payloadStart+payloadLen, len(buf)-pos+1)
			buf = buf[:copy(buf, buf[pos:])]
			pos = 0
			for len(buf) < need && !eof {
				if len(buf) == cap(buf) {
					grow := need + need/16
					if int64(off)+int64(need) > size {
						grow = min(grow, max(2*cap(buf), bytes.MinRead))
					}
					buf = append(make([]byte, 0, grow), buf...)
				}
				n, err := r.Read(buf[len(buf):cap(buf)])
				buf = buf[:len(buf)+n]
				if err == io.EOF {
					eof = true
				} else if err != nil {
					return err
				}
			}
			continue
		}
		frameLen := payloadStart + payloadLen
		rec, err := decodeFrame(buf[pos:pos+frameLen], payloadStart, payloadLen, decode)
		if err != nil {
			return fmt.Errorf("frame at offset %d: %w", off, err)
		}
		pos += frameLen
		off += frameLen
		if !seen[rec.Label] {
			seen[rec.Label] = true
			keep(rec)
		}
	}
}

// truncateTornFrames drops a structurally torn trailing frame from a
// cells.col file, the columnar analogue of truncateTornTail. Only the
// tail is repaired: a malformed or CRC-broken frame followed by more
// bytes is corruption, which recovery leaves in place for the reader
// to report. Idempotent — the truncation point is a frame boundary, so
// a second pass finds nothing torn.
func truncateTornFrames(path string) error { return truncateAt(path, tornFrameOffset) }

// tornFrameOffset walks the frame headers of f, a file of size bytes,
// and returns the offset of its torn trailing frame, -1 when it has
// none. It reads one header per frame, so a repair holds a few bytes,
// not the file.
func tornFrameOffset(f *os.File, size int64) (int64, error) {
	// One byte past the widest length varint tells an overflowing
	// varint from one the file cuts short.
	var hdr [binary.MaxVarintLen64 + 1]byte
	for off := int64(0); off < size; {
		n, err := f.ReadAt(hdr[:min(int64(len(hdr)), size-off)], off)
		if err != nil {
			return 0, err
		}
		payloadStart, payloadLen, torn, err := nextFrame(hdr[:n], int(off))
		if err != nil {
			return -1, nil // mid-file corruption: loud at read time, not repairable here
		}
		if torn && payloadStart == 0 || int64(payloadStart)+int64(payloadLen) > size-off {
			return off, nil
		}
		// CRC and payload validity are deliberately not checked here:
		// a complete-but-corrupt frame is damage, not a torn append.
		off += int64(payloadStart + payloadLen)
	}
	return -1, nil
}
