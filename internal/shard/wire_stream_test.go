package shard

// An execute answer crosses the wire a frame at a time: the worker
// writes each result through one buffer sized for the largest, and the
// coordinator decodes each frame as it arrives. These tests hold the
// edges of that stream — frames across the reader's buffer, lengths
// that claim more than the answer holds, torn bodies, refusals before
// the first byte — and its memory to a frame.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"cloudvar/internal/cloudmodel"
	"cloudvar/internal/fleet"
	"cloudvar/internal/frame"
	"cloudvar/internal/store"
	"cloudvar/internal/testutil"
	"cloudvar/internal/trace"
	"cloudvar/internal/workload"
)

const (
	// bufioSize is the read buffer bufio.NewReader gives the stream.
	bufioSize = 4096
	// readerSize bounds what the readers themselves take: the
	// bufio.Reader, the answer's reader and the bytes.Reader that feeds
	// it, about 200 bytes on a 64-bit host.
	readerSize = 512
)

// trafficResults runs reps repetitions of the repository's two-class
// request mix (examples/workloads) on one c5.xlarge under the
// full-speed and 10-30 regimes, 0.2 emulated hours a cell, the cells a
// traffic campaign's workers answer, and returns them in enumeration
// order.
func trafficResults(tb testing.TB, reps int) []fleet.CellResult {
	tb.Helper()
	spec := testutil.EC2Spec(tb, 7, 1)
	spec.Repetitions = reps
	spec.Config = cloudmodel.DefaultCampaignConfig(0.2 * 3600)
	spec.Workload = &workload.Spec{AggregateRPS: 2, RequestKB: 8192, Clients: []workload.Client{
		{ID: "web", RateFraction: 0.7, SLOClass: "interactive", Arrival: workload.Arrival{Process: workload.Poisson}},
		{ID: "etl", RateFraction: 0.3, SLOClass: "batch", Arrival: workload.Arrival{Process: workload.Gamma, CV: 2}},
	}}
	res, err := fleet.Run(spec)
	if err != nil {
		tb.Fatal(err)
	}
	if err := res.Err(); err != nil {
		tb.Fatal(err)
	}
	return res.Cells
}

func resultCells(results []fleet.CellResult) []fleet.Cell {
	cells := make([]fleet.Cell, len(results))
	for i, res := range results {
		cells[i] = res.Cell
	}
	return cells
}

// discardResponse is a ResponseWriter that keeps nothing it is sent.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// allocated returns the fewest bytes any of three calls of f allocates.
func allocated(f func()) uint64 {
	least := uint64(1<<64 - 1)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
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

// beginStub binds an HTTPWorker to a stub server that answers whatever
// it is asked with handler.
func beginStub(t *testing.T, handler http.HandlerFunc) *HTTPWorker {
	t.Helper()
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	w := &HTTPWorker{URL: srv.URL}
	if err := w.Begin(RunContext{SpecDoc: []byte("{}"), RunID: "r1"}, 0, 1); err != nil {
		t.Fatal(err)
	}
	return w
}

// straddlingAnswer answers wireCells with an error whose message puts
// the second result's frame at offset at, and that frame's series
// points points long.
func straddlingAnswer(t *testing.T, at, points int) []byte {
	t.Helper()
	cells := wireCells(t)
	s := trace.NewSeries(cells[1].Label(), 10)
	for i := range points {
		if err := s.Append(trace.Point{TimeSec: float64(10 * i), BandwidthGbps: 9 + float64(i%7)/10, RTTms: 0.2}); err != nil {
			t.Fatal(err)
		}
	}
	// The count, the first tag and label, the message and the second
	// tag come before the frame; the message's length takes 2 bytes.
	lead := 1 + 1 + frame.StringLen(cells[0].Label()) + 1
	msg := strings.Repeat("x", at-lead-2)
	if lead+frame.StringLen(msg) != at {
		t.Fatalf("a message of %d bytes does not put the frame at %d", len(msg), at)
	}
	b := encodeResponse(t, []fleet.CellResult{
		{Cell: cells[0], Err: errors.New(msg)},
		{Cell: cells[1], Series: s},
	})
	if at >= bufioSize || len(b) <= bufioSize {
		t.Fatalf("a frame from %d to %d does not cross the read buffer", at, len(b))
	}
	return b
}

// TestExecuteStreamEdges holds the stream decoder to the reference on
// frames that straddle the read buffer, and holds the HTTP client's
// failure handling on claims, torn bodies and writer refusals.
func TestExecuteStreamEdges(t *testing.T) {
	cells := wireCells(t)

	t.Run("frames straddle the read buffer", func(t *testing.T) {
		for _, c := range []struct{ at, points int }{
			{bufioSize - 3, 40},     // the frame's header crosses
			{bufioSize - 40, 40},    // its payload crosses
			{bufioSize - 100, 2000}, // it fills reads of its own
		} {
			b := straddlingAnswer(t, c.at, c.points)
			want, err := refDecodeExecuteResponse(b, cells)
			if err != nil {
				t.Fatal(err)
			}
			matchStream(t, b, cells, want, err)
		}
	})

	t.Run("a 1 GiB frame claim in a 100-byte answer", func(t *testing.T) {
		b := binary.AppendUvarint([]byte{1, 0}, 1<<30)
		b = append(b, make([]byte, 100-len(b))...)
		for _, declared := range []int64{100, -1} {
			var err error
			grew := allocated(func() { _, err = readExecuteResponse(bytes.NewReader(b), declared, cells[:1]) })
			if err == nil {
				t.Fatalf("declared %d: a 1 GiB frame claim decoded", declared)
			}
			if grew >= 1<<20 {
				t.Errorf("declared %d: decoding the claim allocated %d bytes", declared, grew)
			}
		}
		w := beginStub(t, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", framesMediaType)
			w.Header().Set("Content-Length", strconv.Itoa(len(b)))
			w.Write(b)
		})
		var err error
		grew := allocated(func() { _, err = w.Execute(cells[:1]) })
		if err == nil || Classify(err) != ClassTransient {
			t.Errorf("a 1 GiB claim over HTTP: %v, want a transient error", err)
		}
		if grew >= 1<<20 {
			t.Errorf("the call allocated %d bytes for a 100-byte answer", grew)
		}
	})

	t.Run("an undeclared claim over the frame limit is refused at its header", func(t *testing.T) {
		head := binary.AppendUvarint([]byte{1, 0}, frame.MaxPayload+1)
		b := append(append(head, 0, 0, 0, 0), make([]byte, 64<<10)...)
		src := &countingReader{r: iotest.OneByteReader(bytes.NewReader(b))}
		if _, err := readExecuteResponse(src, -1, cells[:1]); err == nil {
			t.Fatal("a frame claiming more than the limit decoded")
		}
		if src.n > len(head)+4 {
			t.Errorf("read %d bytes of the answer before refusing it; its frame header ends at %d", src.n, len(head)+4)
		}
	})

	t.Run("a body torn mid-frame is transient", func(t *testing.T) {
		b := encodeResponse(t, wireResults(t))
		w := beginStub(t, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", framesMediaType)
			w.Header().Set("Content-Length", strconv.Itoa(len(b)))
			w.Write(b[:len(b)/2])
		})
		if res, err := w.Execute(cells); err == nil || Classify(err) != ClassTransient {
			t.Errorf("a torn answer: %d results, %v; want a transient error", len(res), err)
		}
	})

	t.Run("a torn body in the wrong media type is transient", func(t *testing.T) {
		w := beginStub(t, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Length", "4096")
			fmt.Fprint(w, `{"results":[{"label":"ec2`)
		})
		if res, err := w.Execute(cells); err == nil || Classify(err) != ClassTransient {
			t.Errorf("a torn JSON answer: %d results, %v; want a transient error", len(res), err)
		}
	})

	t.Run("an over-long client ID is refused before any byte", func(t *testing.T) {
		results := wireResults(t)
		long := *results[0].Workload
		long.Clients = append([]workload.ClientMetrics{}, long.Clients...)
		long.Clients[1].ID = strings.Repeat("c", 1<<16+1)
		results[1] = fleet.CellResult{Cell: results[1].Cell, Series: results[0].Series, Workload: &long}
		rec := httptest.NewRecorder()
		writeExecuteResponse(rec, results)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("writer answered %d, want 500", rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("refusal in Content-Type %q", ct)
		}
		var eb ErrorBody
		dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
		if err := dec.Decode(&eb); err != nil || dec.More() {
			t.Fatalf("the body is not the envelope alone (%v): %q", err, rec.Body.Bytes()[:min(rec.Body.Len(), 64)])
		}
		if eb.Status != http.StatusInternalServerError || !strings.Contains(eb.Error, "client name too long") {
			t.Errorf("envelope %+v, want a 500 naming the client name", eb)
		}
	})
}

// TestExecuteAnswerMemoryIsAFrame: the worker's writer holds a frame,
// not the answer, so answering 64 traffic cells allocates less than a
// frame more than answering 4; and decoding either answer as it
// arrives allocates at most the buffer of its largest frame, the read
// buffer and the readers themselves beyond what the byte-slice
// reference allocates for the same bytes.
func TestExecuteAnswerMemoryIsAFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	all := trafficResults(t, 32)
	largest := 0
	for _, res := range all {
		rec, err := store.NewCellRecord(res)
		if err != nil {
			t.Fatal(err)
		}
		largest = max(largest, store.CellFrameLen(rec))
	}
	// The stream reads a frame into a buffer with a sixteenth to spare.
	frame := uint64(largest + largest/16)
	write := map[int]uint64{}
	for _, n := range []int{4, 64} {
		results := all[:n]
		w := &discardResponse{h: http.Header{}}
		write[n] = allocated(func() { writeExecuteResponse(w, results) })
		b := encodeResponse(t, results)
		cells := resultCells(results)
		var refErr, err error
		ref := allocated(func() { _, refErr = refDecodeExecuteResponse(b, cells) })
		stream := allocated(func() { _, err = readExecuteResponse(bytes.NewReader(b), int64(len(b)), cells) })
		if refErr != nil || err != nil {
			t.Fatalf("%d cells: reference %v, stream %v", n, refErr, err)
		}
		t.Logf("%d cells in %d bytes: writer %d B, reference decode %d B, stream decode %d B; largest frame %d B", n, len(b), write[n], ref, stream, largest)
		if stream > ref+frame+bufioSize+readerSize {
			t.Errorf("%d cells: the stream allocated %d bytes, the reference %d: more than a %d-byte frame, the %d-byte read buffer and %d bytes of readers beyond it", n, stream, ref, frame, bufioSize, readerSize)
		}
	}
	if write[64] >= write[4]+uint64(largest) {
		t.Errorf("the writer allocated %d bytes for 64 cells, %d for 4: a frame (%d bytes) or more apart", write[64], write[4], largest)
	}
}

// BenchmarkExecuteAnswer measures one execute answer of 16 traffic
// cells (two regimes × 8 repetitions, 0.2 emulated hours each) across
// the wire's two ends: written through the worker's writer into a
// ResponseWriter that discards it, then decoded through the stream from
// its bytes. Its B/op is gated: either end holding the whole answer
// again would add the answer's size to it.
//
//	go test ./internal/shard -run '^$' -bench BenchmarkExecuteAnswer -benchmem
func BenchmarkExecuteAnswer(b *testing.B) {
	results := trafficResults(b, 8)
	cells := resultCells(results)
	answer := encodeResponse(b, results)
	w := &discardResponse{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		writeExecuteResponse(w, results)
		got, err := readExecuteResponse(bytes.NewReader(answer), int64(len(answer)), cells)
		if err != nil || len(got) != len(cells) {
			b.Fatalf("%d results, %v", len(got), err)
		}
	}
}
