package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"os"

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

// encodeCellPayload appends rec's columnar payload (no framing) to dst.
func encodeCellPayload(dst []byte, rec CellRecord) ([]byte, error) {
	if rec.Series == nil {
		return nil, fmt.Errorf("store: cell %s has no series", rec.Label)
	}
	if len(rec.Label) > maxColumnarString || len(rec.Series.Label) > maxColumnarString {
		return nil, fmt.Errorf("store: cell %s: label too long to encode", rec.Label)
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
	dst = appendFloatColumn(dst, pts, func(p *trace.Point) float64 { return p.TimeSec })
	dst = appendFloatColumn(dst, pts, func(p *trace.Point) float64 { return p.BandwidthGbps })
	prev := int64(0)
	for i := range pts {
		v := int64(pts[i].Retransmissions)
		dst = binary.AppendVarint(dst, v-prev)
		prev = v
	}
	dst = appendFloatColumn(dst, pts, func(p *trace.Point) float64 { return p.RTTms })
	dst = appendFloatColumn(dst, pts, func(p *trace.Point) float64 { return p.CPUFrac })
	if rec.Workload == nil {
		return append(dst, 0), nil
	}
	dst = append(dst, 2)
	clients := rec.Workload.Clients
	dst = appendLen(dst, clients == nil, len(clients))
	for _, c := range clients {
		if len(c.ID) > maxColumnarString || len(c.Class) > maxColumnarString {
			return nil, fmt.Errorf("store: cell %s: workload client name too long to encode", rec.Label)
		}
		dst = appendString(dst, c.ID)
		dst = appendString(dst, c.Class)
		dst = appendLen(dst, c.LatencyMs == nil, len(c.LatencyMs))
		prev := uint64(0)
		for _, v := range c.LatencyMs {
			bits := math.Float64bits(v)
			dst = binary.AppendVarint(dst, int64(bits-prev))
			prev = bits
		}
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

// appendFloatColumn delta-encodes one float column on IEEE-754 bit
// patterns: wrapping subtraction of consecutive Float64bits, zigzag
// varint. Bit-exact for every value, NaN payloads included, and small
// for the smooth columns campaigns produce.
func appendFloatColumn(dst []byte, pts []trace.Point, get func(*trace.Point) float64) []byte {
	prev := uint64(0)
	for i := range pts {
		bits := math.Float64bits(get(&pts[i]))
		dst = binary.AppendVarint(dst, int64(bits-prev))
		prev = bits
	}
	return dst
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
// too. A record AppendCellFrame refuses has no frame; its length here
// is meaningless.
func CellFrameLen(rec CellRecord) int {
	if rec.Series == nil {
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
	n += floatColumnLen(pts, func(p *trace.Point) float64 { return p.TimeSec })
	n += floatColumnLen(pts, func(p *trace.Point) float64 { return p.BandwidthGbps })
	prev := int64(0)
	for i := range pts {
		v := int64(pts[i].Retransmissions)
		n += varintLen(v - prev)
		prev = v
	}
	n += floatColumnLen(pts, func(p *trace.Point) float64 { return p.RTTms })
	n += floatColumnLen(pts, func(p *trace.Point) float64 { return p.CPUFrac })
	n++ // workload flag
	if rec.Workload == nil {
		return n
	}
	clients := rec.Workload.Clients
	n += lenLen(clients == nil, len(clients))
	for _, c := range clients {
		n += stringLen(c.ID) + stringLen(c.Class) + lenLen(c.LatencyMs == nil, len(c.LatencyMs))
		prev := uint64(0)
		for _, v := range c.LatencyMs {
			cur := math.Float64bits(v)
			n += varintLen(int64(cur - prev))
			prev = cur
		}
	}
	return n
}

// uvarintLen is the length of binary.AppendUvarint's encoding of v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// varintLen is the length of binary.AppendVarint's encoding of v: the
// uvarint of its zigzag form.
func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// lenLen is the length of appendLen's encoding.
func lenLen(isNil bool, n int) int {
	if isNil {
		return 1
	}
	return uvarintLen(uint64(n) + 1)
}

// floatColumnLen is the length of appendFloatColumn's encoding.
func floatColumnLen(pts []trace.Point, get func(*trace.Point) float64) int {
	n := 0
	prev := uint64(0)
	for i := range pts {
		cur := math.Float64bits(get(&pts[i]))
		n += varintLen(int64(cur - prev))
		prev = cur
	}
	return n
}

// DecodeCellFrame decodes the complete frame at the start of b and
// returns its record and the frame's length in bytes. It is the strict
// reader for frames that arrive whole (ShardData, execute answers):
// a frame cut short anywhere, a CRC mismatch, an undecodable payload
// or a schema this binary does not speak is an error.
func DecodeCellFrame(b []byte) (CellRecord, int, error) {
	payloadStart, payloadLen, tornAt, err := nextFrame(b, 0)
	if err != nil {
		return CellRecord{}, 0, err
	}
	if tornAt >= 0 {
		return CellRecord{}, 0, fmt.Errorf("frame truncated: %d bytes hold no complete frame", len(b))
	}
	rec, err := decodeFrame(b, payloadStart, payloadLen)
	if err != nil {
		return CellRecord{}, 0, err
	}
	return rec, payloadStart + payloadLen, nil
}

// decodeFrame checks the CRC of the complete frame whose payload is
// b[payloadStart:payloadStart+payloadLen], decodes the payload, and
// refuses a schema outside this binary's range.
func decodeFrame(b []byte, payloadStart, payloadLen int) (CellRecord, error) {
	payload := b[payloadStart : payloadStart+payloadLen]
	if got, want := crc32.ChecksumIEEE(payload), frameCRC(b, payloadStart); got != want {
		return CellRecord{}, fmt.Errorf("crc %08x != recorded %08x", got, want)
	}
	rec, err := decodeCellPayload(payload)
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
		return 0, fmt.Errorf("truncated uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *colReader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *colReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxColumnarString || r.off+int(n) > len(r.b) {
		return "", fmt.Errorf("string of %d bytes at offset %d exceeds payload", n, r.off)
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
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

// decodeCellPayload decodes one complete frame payload.
func decodeCellPayload(payload []byte) (CellRecord, error) {
	r := &colReader{b: payload}
	var rec CellRecord
	var err error
	fail := func(what string, err error) (CellRecord, error) {
		return CellRecord{}, fmt.Errorf("%s: %w", what, err)
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
	series := &trace.Series{}
	if series.Label, err = r.str(); err != nil {
		return fail("series label", err)
	}
	bits, err := r.u64le()
	if err != nil {
		return fail("interval", err)
	}
	series.IntervalSec = math.Float64frombits(bits)
	n, err := r.uvarint()
	if err != nil {
		return fail("npoints", err)
	}
	// Each point costs at least 5 varint bytes (one per column), so the
	// remaining payload bounds the real point count at remaining/5;
	// anything claiming more is corrupt. Compare in uint64 space — a
	// count >= 2^63 would wrap negative through int() and slip past an
	// int comparison straight into make().
	if n > uint64(len(payload)-r.off)/5 {
		return CellRecord{}, fmt.Errorf("npoints %d exceeds remaining payload %d", n, len(payload)-r.off)
	}
	// n == 0 keeps Points nil, matching what the JSONL codec restores
	// for an empty series.
	if n > 0 {
		series.Points = make([]trace.Point, n)
	}
	pts := series.Points
	if err := readFloatColumn(r, pts, func(p *trace.Point, v float64) { p.TimeSec = v }); err != nil {
		return fail("time column", err)
	}
	if err := readFloatColumn(r, pts, func(p *trace.Point, v float64) { p.BandwidthGbps = v }); err != nil {
		return fail("bandwidth column", err)
	}
	prev := int64(0)
	for i := range pts {
		d, err := r.varint()
		if err != nil {
			return fail("retransmissions column", err)
		}
		prev += d
		pts[i].Retransmissions = int(prev)
	}
	if err := readFloatColumn(r, pts, func(p *trace.Point, v float64) { p.RTTms = v }); err != nil {
		return fail("rtt column", err)
	}
	if err := readFloatColumn(r, pts, func(p *trace.Point, v float64) { p.CPUFrac = v }); err != nil {
		return fail("cpu column", err)
	}
	rec.Series = series
	flag, err := r.byte()
	if err != nil {
		return fail("workload flag", err)
	}
	switch flag {
	case 0:
	case 1:
		if rec.Workload, err = readWorkloadJSON(r); err != nil {
			return fail("workload blob", err)
		}
	case 2:
		if rec.Workload, err = readWorkload(r); err != nil {
			return fail("workload", err)
		}
	default:
		return CellRecord{}, fmt.Errorf("workload flag %d is not 0, 1 or 2", flag)
	}
	if r.off != len(payload) {
		return CellRecord{}, fmt.Errorf("%d trailing bytes after record", len(payload)-r.off)
	}
	return rec, nil
}

// readWorkload decodes a flag-2 workload: the client columns.
func readWorkload(r *colReader) (*workload.CellMetrics, error) {
	// A client costs at least 3 bytes: two empty strings and a ulen.
	n, isNil, err := r.count(3)
	if err != nil {
		return nil, fmt.Errorf("clients: %w", err)
	}
	wl := &workload.CellMetrics{}
	if !isNil {
		wl.Clients = make([]workload.ClientMetrics, n)
	}
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
		if !isNil {
			c.LatencyMs = make([]float64, m)
		}
		prev := uint64(0)
		for j := range c.LatencyMs {
			d, err := r.varint()
			if err != nil {
				return nil, fmt.Errorf("client %d latency column: %w", i, err)
			}
			prev += uint64(d)
			c.LatencyMs[j] = math.Float64frombits(prev)
		}
	}
	return wl, nil
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

func readFloatColumn(r *colReader, pts []trace.Point, set func(*trace.Point, float64)) error {
	prev := uint64(0)
	for i := range pts {
		d, err := r.varint()
		if err != nil {
			return err
		}
		prev += uint64(d)
		set(&pts[i], math.Float64frombits(prev))
	}
	return nil
}

// nextFrame parses one frame header at b[off:]. It distinguishes a
// structurally torn tail (the file ended mid-frame: tornAt >= 0 gives
// the truncation offset) from a corrupt header (err != nil).
func nextFrame(b []byte, off int) (payloadStart, payloadLen, tornAt int, err error) {
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

// frameCRC reads the stored checksum of the frame whose payload starts
// at payloadStart.
func frameCRC(b []byte, payloadStart int) uint32 {
	return binary.LittleEndian.Uint32(b[payloadStart-4:])
}

// readCellsColumnar decodes every complete frame of a cells.col image,
// ignoring a structurally torn tail (crashed writer — the interrupted
// cell re-executes on resume) but failing loudly on a corrupt complete
// frame (CRC mismatch or undecodable payload), mirroring the JSONL
// reader's bad-line behaviour.
func readCellsColumnar(b []byte) ([]CellRecord, error) {
	var out []CellRecord
	seen := make(map[string]bool)
	off := 0
	for off < len(b) {
		payloadStart, payloadLen, tornAt, err := nextFrame(b, off)
		if err != nil {
			return nil, err
		}
		if tornAt >= 0 {
			break // torn tail: everything before it is intact
		}
		rec, err := decodeFrame(b, payloadStart, payloadLen)
		if err != nil {
			return nil, fmt.Errorf("frame at offset %d: %w", off, err)
		}
		off = payloadStart + payloadLen
		if rec.Series == nil || seen[rec.Label] {
			continue
		}
		seen[rec.Label] = true
		out = append(out, rec)
	}
	return out, nil
}

// truncateTornFrames drops a structurally torn trailing frame from a
// cells.col file, the columnar analogue of truncateTornTail. Only the
// tail is repaired: a malformed or CRC-broken frame followed by more
// bytes is corruption, which recovery leaves in place for the reader
// to report. Idempotent — the truncation point is a frame boundary, so
// a second pass finds nothing torn.
func truncateTornFrames(path string) error {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	off := 0
	for off < len(b) {
		payloadStart, payloadLen, tornAt, err := nextFrame(b, off)
		if err != nil {
			return nil // mid-file corruption: loud at read time, not repairable here
		}
		if tornAt >= 0 {
			return os.Truncate(path, int64(tornAt))
		}
		// CRC and payload validity are deliberately not checked here:
		// a complete-but-corrupt frame is damage, not a torn append.
		off = payloadStart + payloadLen
	}
	return nil
}
