package store_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cloudvar/internal/cloudmodel"
	"cloudvar/internal/fleet"
	"cloudvar/internal/frame"
	"cloudvar/internal/store"
	"cloudvar/internal/testutil"
	"cloudvar/internal/workload"
)

// The store's two hot paths are cell append (once per completed cell,
// fsynced) and run recovery (manifest + JSONL parse with torn-tail
// truncation, once per resume or drift analysis). Both sit on the
// campaign critical path, so both are in the benchgate set.

// benchCells runs the small EC2 campaign once and returns its
// successful cell results, the records the benchmarks replay.
func benchCells(b *testing.B) []fleet.CellResult {
	b.Helper()
	return benchSpecCells(b, testutil.EC2Spec(b, 7, 1))
}

// benchSpecCells runs spec once and returns its successful cell
// results.
func benchSpecCells(b *testing.B, spec fleet.CampaignSpec) []fleet.CellResult {
	b.Helper()
	res, err := fleet.Run(spec)
	if err != nil {
		b.Fatal(err)
	}
	if err := res.Err(); err != nil {
		b.Fatal(err)
	}
	return res.Cells
}

// BenchmarkStoreAppend measures Put: encode one cell record and append
// it as a single fsynced JSONL line.
func BenchmarkStoreAppend(b *testing.B) {
	st := testutil.TempStore(b)
	cells := benchCells(b)
	run, err := st.CreateWithMeta("bench-append", testutil.EC2Spec(b, 7, 1), store.RunMeta{CreatedUnix: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer run.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run.Put(cells[i%len(cells)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreRecovery measures the resume path: load a run's cells
// with a torn trailing line (a crashed writer's artifact) injected
// before every load, so each iteration pays truncation plus the full
// JSONL parse.
func BenchmarkStoreRecovery(b *testing.B) {
	st := testutil.TempStore(b)
	spec := testutil.EC2Spec(b, 7, 1)
	run, err := st.CreateWithMeta("bench-recovery", spec, store.RunMeta{CreatedUnix: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range benchCells(b) {
		if err := run.Put(c); err != nil {
			b.Fatal(err)
		}
	}
	if err := run.Close(); err != nil {
		b.Fatal(err)
	}
	cellsPath := filepath.Join(st.Dir(), "runs", "bench-recovery", "cells.jsonl")
	torn := []byte(`{"schema":1,"label":"torn`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.OpenFile(cellsPath, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Write(torn); err != nil {
			b.Fatal(err)
		}
		f.Close()
		cells, err := st.Cells("bench-recovery")
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 4 {
			b.Fatalf("recovered %d cells, want 4", len(cells))
		}
	}
}

// BenchmarkStoreAppendColumnar is BenchmarkStoreAppend over the
// columnar encoding: encode one cell into a delta-encoded frame and
// append it fsynced. The encoder reuses the run's buffers, so steady
// state should allocate only what fsync and the record copy force.
func BenchmarkStoreAppendColumnar(b *testing.B) {
	st := testutil.TempStore(b)
	cells := benchCells(b)
	run, err := st.CreateWithMeta("bench-append", testutil.EC2Spec(b, 7, 1), store.RunMeta{CreatedUnix: 1, Encoding: store.EncodingColumnar})
	if err != nil {
		b.Fatal(err)
	}
	defer run.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run.Put(cells[i%len(cells)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreRecoveryColumnar measures the columnar resume path:
// each iteration injects a torn frame header (an incomplete uvarint, a
// crashed writer's artifact), pays the frame walk + CRC + column
// decode for the whole file, then restores the file so the torn bytes
// never accumulate into mid-file corruption.
func BenchmarkStoreRecoveryColumnar(b *testing.B) {
	st := testutil.TempStore(b)
	spec := testutil.EC2Spec(b, 7, 1)
	run, err := st.CreateWithMeta("bench-recovery", spec, store.RunMeta{CreatedUnix: 1, Encoding: store.EncodingColumnar})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range benchCells(b) {
		if err := run.Put(c); err != nil {
			b.Fatal(err)
		}
	}
	if err := run.Close(); err != nil {
		b.Fatal(err)
	}
	cellsPath := filepath.Join(st.Dir(), "runs", "bench-recovery", "cells.col")
	info, err := os.Stat(cellsPath)
	if err != nil {
		b.Fatal(err)
	}
	intact := info.Size()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.OpenFile(cellsPath, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Write([]byte{0x80}); err != nil {
			b.Fatal(err)
		}
		f.Close()
		cells, err := st.Cells("bench-recovery")
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 4 {
			b.Fatalf("recovered %d cells, want 4", len(cells))
		}
		if err := os.Truncate(cellsPath, intact); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreBandwidthCells measures the drift read of one columnar
// run of 16 cells of 24 emulated hours (8640 bins each), 2.1 MB on
// disk in frames of up to 207 KB, through a fresh BandwidthScratch
// each op: the frame walk and each frame's CRC, header and bandwidth
// column, the other four columns stepped over. Its B/op is gated: the
// read holds the file a frame at a time, so reading the whole file
// into memory again would multiply it.
//
//	go test ./internal/store -run '^$' -bench BenchmarkStoreBandwidthCells -benchmem
func BenchmarkStoreBandwidthCells(b *testing.B) {
	st := testutil.TempStore(b)
	spec := testutil.EC2Spec(b, 7, 1)
	spec.Repetitions = 8
	spec.Config = cloudmodel.DefaultCampaignConfig(24 * 3600)
	run, err := st.CreateWithMeta("bw", spec, store.RunMeta{CreatedUnix: 1, Encoding: store.EncodingColumnar})
	if err != nil {
		b.Fatal(err)
	}
	spec.Sink = run
	benchSpecCells(b, spec)
	if err := run.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var scratch store.BandwidthScratch
		cells := 0
		if err := st.BandwidthCells("bw", store.EncodingColumnar, &scratch, func(store.BandwidthCell) { cells++ }); err != nil {
			b.Fatal(err)
		}
		if cells != 16 {
			b.Fatalf("read %d cells, want 16", cells)
		}
	}
}

// workloadBenchSpec is testutil.EC2Spec serving a two-client traffic
// mix, so every cell carries per-request latency columns.
func workloadBenchSpec(b *testing.B) fleet.CampaignSpec {
	spec := testutil.EC2Spec(b, 7, 1)
	spec.Workload = &workload.Spec{
		AggregateRPS: 2,
		Clients: []workload.Client{
			{ID: "chat", RateFraction: 0.75, SLOClass: "interactive", Arrival: workload.Arrival{Process: workload.Poisson}},
			{ID: "batch", RateFraction: 0.25, SLOClass: "batch", Arrival: workload.Arrival{Process: workload.Gamma, CV: 2}},
		},
	}
	return spec
}

// shardStores runs spec once and persists its cells round-robin into
// n shard-stamped stores in encoding enc, returning the loaded shards.
func shardStores(b *testing.B, spec fleet.CampaignSpec, enc string, n int) []store.ShardData {
	b.Helper()
	res, err := fleet.Run(spec)
	if err != nil {
		b.Fatal(err)
	}
	if err := res.Err(); err != nil {
		b.Fatal(err)
	}
	var data []store.ShardData
	for i := 0; i < n; i++ {
		st := testutil.TempStore(b)
		run, err := st.CreateWithMeta("s", spec, store.RunMeta{CreatedUnix: 1, Encoding: enc, Shard: &store.ShardStamp{Index: i, Count: n}})
		if err != nil {
			b.Fatal(err)
		}
		for j, c := range res.Cells {
			if j%n != i {
				continue
			}
			if err := run.Put(c); err != nil {
				b.Fatal(err)
			}
		}
		if err := run.Close(); err != nil {
			b.Fatal(err)
		}
		d, err := store.LoadShard(st, "s")
		if err != nil {
			b.Fatal(err)
		}
		data = append(data, d)
	}
	return data
}

// BenchmarkStoreShardMerge measures MergeShards over one campaign's
// cells split across two shards; campaignd's coordinator merges the
// same cells as one shard. It times cross-shard identity
// verification, encoding each record once in the run's encoding (the
// bytes that both detect differing duplicates and form the merged
// file), canonical reordering, and the staged write of the merged run.
// The columnar case carries workload latency columns.
func BenchmarkStoreShardMerge(b *testing.B) {
	for _, c := range []struct {
		name string
		spec func(*testing.B) fleet.CampaignSpec
		enc  string
	}{
		{"jsonl", func(b *testing.B) fleet.CampaignSpec { return testutil.EC2Spec(b, 7, 1) }, store.EncodingJSONL},
		{"columnar-workload", workloadBenchSpec, store.EncodingColumnar},
	} {
		b.Run(c.name, func(b *testing.B) {
			data := shardStores(b, c.spec(b), c.enc, 2)
			dst := testutil.TempStore(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run, err := store.MergeShards(dst, fmt.Sprintf("m%d", i), data, nil)
				if err != nil {
					b.Fatal(err)
				}
				if err := run.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreShardCodec measures the shard wire codec behind
// GET /v1/shard, which no campaign sends: Encode and DecodeShardData
// of a workload-carrying columnar shard.
func BenchmarkStoreShardCodec(b *testing.B) {
	d := shardStores(b, workloadBenchSpec(b), store.EncodingColumnar, 1)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := d.Encode()
		if err != nil {
			b.Fatal(err)
		}
		got, err := store.DecodeShardData(enc)
		if err != nil {
			b.Fatal(err)
		}
		if len(got.Cells) != len(d.Cells) {
			b.Fatalf("decoded %d cells, want %d", len(got.Cells), len(d.Cells))
		}
	}
}

// BenchmarkStoreCellCodec measures the columnar cell codec on its own,
// over one 24-hour EC2 cell of 8,640 bins — the cell shape of the §3
// campaign every store read, execute answer, merge and Put codes.
// encode appends the cell's frame to a reused buffer; decode reads it
// through a frame.Reader that reuses its buffer and DecodeCellPayload.
// Both report ns/value, a value being one point field (five per bin).
//
//	go test ./internal/store -run '^$' -bench BenchmarkStoreCellCodec -benchmem
func BenchmarkStoreCellCodec(b *testing.B) {
	spec := testutil.EC2Spec(b, 7, 1)
	spec.Regimes = spec.Regimes[:1]
	spec.Repetitions = 1
	spec.Config = cloudmodel.DefaultCampaignConfig(24 * 3600)
	rec, err := store.NewCellRecord(benchSpecCells(b, spec)[0])
	if err != nil {
		b.Fatal(err)
	}
	values := 5 * len(rec.Series.Points)
	if values != 5*8640 {
		b.Fatalf("cell has %d bins, want 8640", len(rec.Series.Points))
	}
	cellFrame, err := store.AppendCellFrame(nil, rec)
	if err != nil {
		b.Fatal(err)
	}
	perValue := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(values), "ns/value")
	}
	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, len(cellFrame)+store.CellFrameHeadroom)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if buf, err = store.AppendCellFrame(buf[:0], rec); err != nil {
				b.Fatal(err)
			}
		}
		perValue(b)
	})
	b.Run("decode", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := frame.NewReader(bytes.NewReader(cellFrame), int64(len(cellFrame)), buf)
			payload, err := r.Next()
			if err == nil {
				_, err = store.DecodeCellPayload(payload)
			}
			if err != nil || r.Offset() != int64(len(cellFrame)) {
				b.Fatalf("decoded %d of %d bytes: %v", r.Offset(), len(cellFrame), err)
			}
			buf = r.Buffer()
		}
		perValue(b)
	})
}

// TestColumnarCompressionRatio is the size gate the columnar format
// exists to win: the same campaign persisted both ways must come out
// at least 3x smaller columnar than JSONL. The campaign is seeded, so
// the ratio is deterministic — a codec change that loses the
// compression fails here, not in a dashboard.
func TestColumnarCompressionRatio(t *testing.T) {
	st := testutil.TempStore(t)
	spec := testutil.EC2Spec(t, 7, 1)
	res, err := fleet.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	jr, err := st.CreateWithMeta("jsonl", spec, store.RunMeta{CreatedUnix: 1})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := st.CreateWithMeta("col", spec, store.RunMeta{CreatedUnix: 1, Encoding: store.EncodingColumnar})
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range res.Cells {
		if err := jr.Put(cell); err != nil {
			t.Fatal(err)
		}
		if err := cr.Put(cell); err != nil {
			t.Fatal(err)
		}
	}
	jr.Close()
	cr.Close()

	jsonlInfo, err := os.Stat(filepath.Join(st.Dir(), "runs", "jsonl", "cells.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	colInfo, err := os.Stat(filepath.Join(st.Dir(), "runs", "col", "cells.col"))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(jsonlInfo.Size()) / float64(colInfo.Size())
	t.Logf("%d cells: %d bytes JSONL, %d bytes columnar (%.2fx, %.0f vs %.0f bytes/cell)",
		len(res.Cells), jsonlInfo.Size(), colInfo.Size(), ratio,
		float64(jsonlInfo.Size())/float64(len(res.Cells)), float64(colInfo.Size())/float64(len(res.Cells)))
	if ratio < 3 {
		t.Fatalf("columnar cells are only %.2fx smaller than JSONL, the format promises >= 3x", ratio)
	}
}
