package store

// Compatibility against a committed store. compat_test.go pins the
// keys and cell bytes in code; this file pins them on disk: a real
// JSONL run generated by the pre-columnar (PR 6 era) toolchain lives
// under testdata/goldenstore, and every future binary must keep
// loading it, resuming it without re-executing a single cell, and
// producing bit-identical cells when the same spec is stored columnar.
// Run with -update to regenerate the fixture (only legitimate when the
// goldens in compat_test.go move too, i.e. an intentional re-key).

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"cloudvar/internal/fleet"
)

const (
	goldenStoreDir = "testdata/goldenstore"
	goldenRunID    = "pr6"
	// goldenCreatedUnix is the fixture's frozen creation stamp
	// (2026-08-01T00:00:00Z) — caller-supplied times keep it stable.
	goldenCreatedUnix = 1785542400
)

// goldenStoreSpec is goldenSpec pinned to one worker, so the fixture's
// cells.jsonl append order is the enumeration order on every
// regeneration. Workers is scheduling, not identity: the keys match
// compat_test.go's goldens exactly.
func goldenStoreSpec(t *testing.T) fleet.CampaignSpec {
	t.Helper()
	spec := goldenSpec(t)
	spec.Workers = 1
	return spec
}

// copyTree copies the fixture into a scratch directory. Resume opens
// an append handle and runs torn-tail repair; neither may ever touch
// the committed files.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// regenerateGoldenStore rebuilds the committed fixture in place.
func regenerateGoldenStore(t *testing.T) {
	t.Helper()
	if err := os.RemoveAll(filepath.Join(goldenStoreDir, "runs", goldenRunID)); err != nil {
		t.Fatal(err)
	}
	st, err := Open(goldenStoreDir)
	if err != nil {
		t.Fatal(err)
	}
	spec := goldenStoreSpec(t)
	run, err := st.CreateWithMeta(goldenRunID, spec, RunMeta{CreatedUnix: goldenCreatedUnix})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	spec.Sink = run
	res, err := fleet.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenStoreCompat is the on-disk half of the schema-compat
// contract: the committed PR 6 era JSONL run still carries the golden
// keys and cell bytes, resumes with zero re-executed cells, and a
// columnar run of the same spec keys identically with bit-identical
// cell records.
func TestGoldenStoreCompat(t *testing.T) {
	if *updateCorpus {
		regenerateGoldenStore(t)
	}

	scratch := t.TempDir()
	copyTree(t, goldenStoreDir, scratch)
	st, err := Open(scratch)
	if err != nil {
		t.Fatal(err)
	}

	// The manifest must still carry the schema-2 identity and the
	// golden keys — and no encoding stamp (pre-columnar manifests
	// imply JSONL).
	m, err := st.Manifest(goldenRunID)
	if err != nil {
		t.Fatal(err)
	}
	if m.Schema != 2 || m.Spec.Schema != 2 {
		t.Fatalf("golden manifest schema = %d/%d, want 2/2", m.Schema, m.Spec.Schema)
	}
	if m.SpecKey != goldenSpecKey {
		t.Errorf("golden SpecKey = %s, want %s", m.SpecKey, goldenSpecKey)
	}
	if m.MatrixKey != goldenMatrixKey {
		t.Errorf("golden MatrixKey = %s, want %s", m.MatrixKey, goldenMatrixKey)
	}
	if m.Encoding != EncodingJSONL {
		t.Errorf("golden encoding = %q, want JSONL", m.Encoding)
	}

	// The first cells.jsonl line is the rep0 cell whose bytes
	// compat_test.go pins — the fixture and the in-code golden must
	// never drift apart.
	raw, err := os.ReadFile(filepath.Join(scratch, "runs", goldenRunID, "cells.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	first, _, ok := bytes.Cut(raw, []byte("\n"))
	if !ok {
		t.Fatal("golden cells.jsonl has no complete line")
	}
	if len(first) != goldenCellLen {
		t.Errorf("golden cell line is %d bytes, want %d", len(first), goldenCellLen)
	}
	sum := sha256.Sum256(first)
	if got := hex.EncodeToString(sum[:]); got != goldenCellSHA {
		t.Errorf("golden cell sha = %s, want %s", got, goldenCellSHA)
	}

	// Resume the golden run with the current binary: the spec must
	// still hash to the recorded key, and every cell must restore
	// from disk — zero re-executions.
	spec := goldenStoreSpec(t)
	executed := 0
	spec.Progress = func(fleet.Progress) { executed++ }
	run, err := st.Resume(goldenRunID, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	spec.Sink = run
	res, err := fleet.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if executed != 0 {
		t.Fatalf("resuming the golden store re-executed %d cells, want 0", executed)
	}
	if want := len(spec.Cells()); len(res.Cells) != want {
		t.Fatalf("restored %d cells, want %d", len(res.Cells), want)
	}

	// A columnar run of the same spec is the same experiment: equal
	// keys, bit-identical cell records — only the bytes on disk
	// differ.
	twinSpec := goldenStoreSpec(t)
	twin, err := st.CreateWithMeta("twin", twinSpec, RunMeta{CreatedUnix: goldenCreatedUnix, Encoding: EncodingColumnar})
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	twinSpec.Sink = twin
	twinRes, err := fleet.Run(twinSpec)
	if err != nil {
		t.Fatal(err)
	}
	if err := twinRes.Err(); err != nil {
		t.Fatal(err)
	}
	tm := twin.Manifest()
	if tm.SpecKey != goldenSpecKey || tm.MatrixKey != goldenMatrixKey {
		t.Fatalf("columnar twin keys = %.12s/%.12s, want the goldens — encoding leaked into identity", tm.SpecKey, tm.MatrixKey)
	}

	jsonlCells, err := st.Cells(goldenRunID)
	if err != nil {
		t.Fatal(err)
	}
	colCells, err := st.Cells("twin")
	if err != nil {
		t.Fatal(err)
	}
	if len(jsonlCells) != len(colCells) {
		t.Fatalf("JSONL run has %d cells, columnar twin %d", len(jsonlCells), len(colCells))
	}
	for i := range jsonlCells {
		a, _ := json.Marshal(jsonlCells[i])
		b, _ := json.Marshal(colCells[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("cell %d differs between golden JSONL and columnar twin:\n%s\n%s", i, a, b)
		}
	}
}
