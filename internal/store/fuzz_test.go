package store

// The fuzz target lives inside the package (not store_test) so it can
// drive truncateTornTail directly — the crash-recovery seam between
// "a reader that skips torn tails" and "a writer that must not append
// after one".

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudvar/internal/trace"
)

// fuzzStore builds a store with one run directory whose cells.jsonl
// holds exactly data, bypassing the writer (the writer cannot produce
// arbitrary corruption; crashes and concurrent writers can).
func fuzzStore(t *testing.T, data []byte) (*Store, string) {
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
	if err := os.WriteFile(filepath.Join(runDir, "cells.jsonl"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return st, filepath.Join(runDir, "cells.jsonl")
}

// validRecordLine returns one well-formed cells.jsonl line.
func validRecordLine(t *testing.T, label string) []byte {
	t.Helper()
	s := trace.NewSeries(label, 10)
	if err := s.Append(trace.Point{TimeSec: 0, BandwidthGbps: 9.5}); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(CellRecord{
		// A workload-less record is stamped with the oldest schema able
		// to express it, exactly as Put writes it.
		Schema: cellSchema(nil), Label: label,
		Cloud: "ec2", Instance: "c5.xlarge", Regime: "full-speed",
		Series: s,
	})
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// FuzzCellsRecovery feeds arbitrary bytes to the torn-tail recovery
// path and checks its contract:
//
//  1. Cells never panics, whatever is on disk.
//  2. truncateTornTail leaves a file that is empty or ends in '\n',
//     and never grows it; it cuts where the whole-file version it
//     replaced (refTruncateTornTail, repair_test.go) cuts.
//  3. Re-running recovery on a recovered file is a no-op
//     (idempotence).
//  4. A record appended after recovery is read back intact — the
//     append-after-crash scenario resume depends on.
//  5. Recovery never loses complete lines: Cells sees the same
//     records before and after truncation.
func FuzzCellsRecovery(f *testing.F) {
	// Seed corpus: the shapes crashed writers actually leave, plus
	// hostile ones. Mirrored by files under testdata/fuzz.
	f.Add([]byte(""))
	f.Add([]byte("\n"))
	f.Add([]byte("{\n"))
	f.Add([]byte(`{"schema":2,"label":"torn`))
	f.Add([]byte("{\"schema\":2,\"label\":\"a\",\"series\":{\"label\":\"a\",\"interval_sec\":10}}\n{\"schema\":2,\"label\":\"torn"))
	f.Add([]byte("not json at all\x00\xff\n"))
	f.Add([]byte("null\n"))
	f.Add([]byte("{}\n{}\n"))
	f.Add(bytes.Repeat([]byte("\n"), 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, path := fuzzStore(t, data)

		// (1) Reading arbitrary bytes must not panic; errors are fine.
		before, beforeErr := st.Cells("r1")

		// (2) Recovery truncates to the last complete line, as the
		// whole-file reference does.
		matchRepair(t, "cells.jsonl", data, truncateTornTail, refTruncateTornTail)
		if err := truncateTornTail(path); err != nil {
			t.Fatalf("truncateTornTail: %v", err)
		}
		recovered, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recovered) > len(data) {
			t.Fatalf("recovery grew the file: %d -> %d bytes", len(data), len(recovered))
		}
		if len(recovered) > 0 && recovered[len(recovered)-1] != '\n' {
			t.Fatalf("recovered file does not end in a newline: %q", recovered)
		}

		// (3) Idempotence.
		if err := truncateTornTail(path); err != nil {
			t.Fatalf("second truncateTornTail: %v", err)
		}
		again, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(recovered, again) {
			t.Fatal("truncateTornTail is not idempotent")
		}

		// (5) Complete lines survive recovery byte for byte.
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
		}

		// (4) Appending after recovery yields a parseable tail record.
		rec := validRecordLine(t, "appended/after/recovery/rep0")
		fh, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.Write(rec); err != nil {
			t.Fatal(err)
		}
		fh.Close()
		final, finalErr := st.Cells("r1")
		if finalErr == nil {
			found := false
			for _, r := range final {
				if r.Label == "appended/after/recovery/rep0" {
					found = true
				}
			}
			if !found {
				t.Fatal("record appended after recovery was not read back")
			}
		} else {
			// The pre-existing complete lines were already unreadable
			// (bad JSON/schema); the torn-tail contract only promises
			// the append itself is not corrupted. Verify the tail
			// line parses in isolation.
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
			var got CellRecord
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("appended record corrupted by recovery: %v", err)
			}
			if got.Label != "appended/after/recovery/rep0" {
				t.Fatalf("appended record lost its identity: %+v", got)
			}
		}
	})
}

// TestFuzzSeedShapes pins the non-fuzzed behaviour of the most
// important corpus shapes, so the contract is visible (and enforced)
// even in -run-only test runs.
func TestFuzzSeedShapes(t *testing.T) {
	valid := validRecordLine(t, "ok/rep0")

	t.Run("torn tail after valid line", func(t *testing.T) {
		st, _ := fuzzStore(t, append(append([]byte{}, valid...), []byte(`{"schema":2,"label":"torn`)...))
		cells, err := st.Cells("r1")
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != 1 || cells[0].Label != "ok/rep0" {
			t.Fatalf("cells = %+v, want the single complete record", cells)
		}
	})

	t.Run("wrong schema is an error not a skip", func(t *testing.T) {
		line := bytes.Replace(valid, []byte(`"schema":2`), []byte(`"schema":1`), 1)
		st, _ := fuzzStore(t, line)
		if _, err := st.Cells("r1"); err == nil {
			t.Fatal("outdated schema should fail loudly")
		}
	})

	t.Run("duplicate labels keep first", func(t *testing.T) {
		st, _ := fuzzStore(t, append(append([]byte{}, valid...), valid...))
		cells, err := st.Cells("r1")
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != 1 {
			t.Fatalf("%d records, want 1 (first write wins)", len(cells))
		}
	})
}
