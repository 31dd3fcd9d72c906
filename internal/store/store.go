// Package store is the persistent, content-addressed results store
// for measurement campaigns. The paper's core warning is that cloud
// performance results decay: baselines drift, so a single-shot result
// that lives only in process memory cannot support the longitudinal
// question "does my conclusion still hold?" (F5.2, F5.5). store gives
// every campaign run a durable on-disk identity so runs can be
// resumed after interruption and compared across days or months by
// internal/longitudinal.
//
// Layout, one directory per store:
//
//	<dir>/runs/<runID>/manifest.json  — schema version, spec identity
//	                                    + key, platform fingerprints
//	<dir>/runs/<runID>/cells.jsonl    — one JSON record per completed
//	                                    cell, append-only
//
// The manifest carries two content addresses, both stable hashes of
// everything that changes what fleet.Run computes (profiles, regimes,
// repetitions, config, schema version) and nothing that merely
// changes how it is scheduled: SpecKey includes the seed and gates
// resume (equal keys mean bit-identical expected results), MatrixKey
// excludes it and gates longitudinal comparison (equal keys mean "the
// same campaign on a different day"). Runs of different matrix keys
// must never be compared, which is exactly the check the drift
// analyser enforces.
//
// Durability model: run creation is atomic (the run directory is
// staged under a temporary name and renamed into place), each cell is
// appended as one fsynced line, and loading tolerates a torn trailing
// line from a crashed writer by ignoring it — the interrupted cell
// simply re-executes on resume.
package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"

	"cloudvar/internal/core"
	"cloudvar/internal/fleet"
	"cloudvar/internal/trace"
	"cloudvar/internal/workload"
)

// Manifest describes one stored run. It is written at run creation
// and — with one exception — never mutated: an adaptive campaign's
// achieved precision (Precision) is recorded after the run completes,
// by atomically rewriting the manifest with only that field added.
type Manifest struct {
	// Schema is the on-disk format version of the run.
	Schema int `json:"schema"`
	// RunID names the run inside its store (e.g. "2026-07-29").
	RunID string `json:"run_id"`
	// SpecKey is the full content address of the campaign spec, seed
	// included — equal keys mean bit-identical expected results, the
	// precondition for resume.
	SpecKey string `json:"spec_key"`
	// MatrixKey is the seed-independent address — equal keys mean
	// "the same campaign on a different day", the precondition for
	// longitudinal comparison.
	MatrixKey string `json:"matrix_key"`
	// Spec is the canonical identity the key was computed from, kept
	// readable so a human can diff two manifests.
	Spec SpecIdentity `json:"spec"`
	// Fingerprints holds the F5.2 platform baselines measured when
	// the run was created, keyed by "cloud/instance". The drift
	// analyser refuses to trust cross-run comparisons whose
	// fingerprints diverge.
	Fingerprints map[string]core.Fingerprint `json:"fingerprints,omitempty"`
	// CreatedUnix is the caller-supplied creation time (seconds).
	// Caller-supplied so stores built in tests are reproducible.
	CreatedUnix int64 `json:"created_unix"`
	// ExperimentSpec is the canonical experiment-spec document
	// (internal/expspec) the run was launched from, embedded verbatim
	// so a stored run can reprint the exact spec that produced it
	// (drift -show-spec). Empty for runs created without a spec
	// document.
	ExperimentSpec json.RawMessage `json:"experiment_spec,omitempty"`
	// ExperimentSpecHash is the spec document's content address,
	// riding next to SpecKey/MatrixKey.
	ExperimentSpecHash string `json:"experiment_spec_hash,omitempty"`
	// Encoding names the cell-record encoding: "" (JSONL, the
	// compatibility default every pre-columnar manifest implies) or
	// "columnar" (delta/zigzag-encoded columns, cells.col). Operational
	// metadata, not spec identity: the same experiment stored either
	// way has the same keys.
	Encoding string `json:"encoding,omitempty"`
	// Precision holds the per-group achieved precision of an adaptive
	// (sequential-stopping) campaign, recorded via RecordPrecision when
	// the run completes (schema >= 5); nil for fixed-repetition runs
	// and for adaptive runs interrupted before completion.
	Precision []PrecisionRecord `json:"precision,omitempty"`
	// Shard marks this run as one shard of a distributed campaign
	// (schema >= 6); nil for complete runs, including merged ones. A
	// stamped run holds only the cells its worker executed — it must
	// never be read as a complete campaign, which is why the stamp
	// forces the manifest's top-level schema to 6.
	Shard *ShardStamp `json:"shard,omitempty"`
}

// ShardStamp identifies which slice of a distributed campaign a store
// run holds: the producing worker's index out of the campaign's worker
// count. Operational metadata, not spec identity — the stamped run's
// SpecKey/MatrixKey are those of the whole campaign, which is exactly
// what lets MergeShards verify that shards belong together.
type ShardStamp struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// Validate checks the stamp's invariant.
func (s ShardStamp) Validate() error {
	if s.Count <= 0 || s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("store: shard stamp %d/%d outside [0, count)", s.Index, s.Count)
	}
	return nil
}

// PrecisionRecord is one group's achieved CI precision under the
// sequential-stopping policy — the store's durable form of
// fleet.GroupPrecision. HalfWidth and RelErr are -1 when no finite
// interval was achieved (the sentinel keeps the record JSON-clean;
// NaN/Inf have no JSON encoding).
type PrecisionRecord struct {
	// Group is the owning group's "cloud/instance/regime" label.
	Group     string  `json:"group"`
	N         int     `json:"n"`
	HalfWidth float64 `json:"half_width"`
	RelErr    float64 `json:"rel_err"`
	Converged bool    `json:"converged"`
	Diverging bool    `json:"diverging,omitempty"`
}

// RunMeta carries the creation-time metadata of a run beyond its
// campaign spec: platform fingerprints, the creation time
// (caller-supplied so stores built in tests are reproducible), and
// optionally the canonical experiment-spec document + hash the run
// was launched from. Its JSON names are the manifest's; it travels
// as is in a shard execute request.
type RunMeta struct {
	Fingerprints       map[string]core.Fingerprint `json:"fingerprints,omitempty"`
	CreatedUnix        int64                       `json:"created_unix"`
	ExperimentSpec     json.RawMessage             `json:"experiment_spec,omitempty"`
	ExperimentSpecHash string                      `json:"experiment_spec_hash,omitempty"`
	// Encoding selects the cell-record encoding for the new run:
	// "" or "jsonl" for JSONL (default), "columnar" for cells.col.
	Encoding string `json:"encoding,omitempty"`
	// Shard stamps the new run as one shard of a distributed campaign
	// (see Manifest.Shard); nil for complete runs. Never sent: a
	// worker stamps its own shard.
	Shard *ShardStamp `json:"-"`
}

// CellRecord is one persisted campaign cell. Failed cells are never
// persisted: an error is a fact about one execution, not about the
// campaign matrix, and re-executing it on resume is the correct
// recovery.
type CellRecord struct {
	Schema   int    `json:"schema"`
	Label    string `json:"label"`
	Cloud    string `json:"cloud"`
	Instance string `json:"instance"`
	Regime   string `json:"regime"`
	Rep      int    `json:"rep"`
	// Series is the full measurement series; JSON round-trips float64
	// exactly, so a restored series is bit-identical to the measured
	// one. Derived statistics are deliberately not stored: summaries
	// can contain NaN (which JSON cannot carry) and would be redundant
	// anyway — resume and drift recompute them from the series.
	Series *trace.Series `json:"series"`
	// Workload holds the cell's per-client served-traffic metrics when
	// the spec carried a workload section (schema >= 3); nil otherwise.
	// Per-class summaries are recomputed from it, never stored.
	Workload *workload.CellMetrics `json:"workload,omitempty"`
}

// cellSchema returns the schema a cell record is stamped with: the
// oldest version able to express it, mirroring identitySchema.
func cellSchema(wl *workload.CellMetrics) int {
	if wl != nil {
		return 3
	}
	return 2
}

// Store is a directory of runs.
type Store struct {
	dir string
}

var runIDPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// ValidRunID reports whether id is acceptable as a run name —
// exported so the spec layer can validate documents without opening a
// store.
func ValidRunID(id string) bool { return runIDPattern.MatchString(id) }

// Open opens (creating if needed) the store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) runDir(runID string) string {
	return filepath.Join(s.dir, "runs", runID)
}

// CreateWithMeta starts a new run from a spec: it computes the spec
// key, stages the manifest in a temporary directory and renames it
// into place, so a run either exists completely or not at all. meta
// carries the creation metadata, including the canonical
// experiment-spec document the run was launched from. It fails if the
// run ID is already taken — resuming an existing run goes through
// Resume, which re-checks the spec key instead.
func (s *Store) CreateWithMeta(runID string, spec fleet.CampaignSpec, meta RunMeta) (*Run, error) {
	m, err := BuildManifest(runID, spec, meta)
	if err != nil {
		return nil, err
	}
	if err := s.commitRun(m, nil); err != nil {
		return nil, err
	}
	return s.openRun(m)
}

// BuildManifest computes the manifest CreateWithMeta would commit for
// (runID, spec, meta) without touching disk. The shard coordinator
// builds the manifest of the shard it hands the merge with it — the
// bytes must be exactly what a worker's CreateWithMeta writes, or the
// merge refuses them.
func BuildManifest(runID string, spec fleet.CampaignSpec, meta RunMeta) (Manifest, error) {
	if !runIDPattern.MatchString(runID) {
		return Manifest{}, fmt.Errorf("store: run id %q must match %s", runID, runIDPattern)
	}
	id := Identity(spec)
	key, err := id.Key()
	if err != nil {
		return Manifest{}, err
	}
	matrixKey, err := id.MatrixKey()
	if err != nil {
		return Manifest{}, err
	}
	if len(meta.ExperimentSpec) > 0 && !json.Valid(meta.ExperimentSpec) {
		return Manifest{}, fmt.Errorf("store: run %q experiment spec is not valid JSON", runID)
	}
	enc, err := NormalizeEncoding(meta.Encoding)
	if err != nil {
		return Manifest{}, err
	}
	m := Manifest{
		// Stamped with the identity's schema — the oldest version able
		// to express the spec — so workload-less runs keep v2 manifests.
		Schema:             id.Schema,
		RunID:              runID,
		SpecKey:            key,
		MatrixKey:          matrixKey,
		Spec:               id,
		Fingerprints:       meta.Fingerprints,
		CreatedUnix:        meta.CreatedUnix,
		ExperimentSpec:     meta.ExperimentSpec,
		ExperimentSpecHash: meta.ExperimentSpecHash,
		Encoding:           enc,
	}
	if enc == EncodingColumnar && m.Schema < 4 {
		// Columnar cells need a schema-4 reader; stamping the run's
		// top-level schema (the spec identity inside keeps its own,
		// older schema, so the keys don't move) makes pre-columnar
		// binaries refuse the run instead of finding no cells.jsonl
		// and silently re-executing everything.
		m.Schema = 4
	}
	if meta.Shard != nil {
		if err := meta.Shard.Validate(); err != nil {
			return Manifest{}, err
		}
		stamp := *meta.Shard
		m.Shard = &stamp
		if m.Schema < 6 {
			// Same reasoning as columnar: a shard run is partial by
			// construction, so pre-shard binaries must refuse it rather
			// than read it as a complete campaign.
			m.Schema = 6
		}
	}
	return m, nil
}

// commitRun atomically materialises a run directory: the manifest
// (plus any pre-built cell files) is staged under a temporary name and
// renamed into place, so a run either exists completely or not at all.
// stage, when non-nil, may write additional files into the staging
// directory before the rename.
func (s *Store) commitRun(m Manifest, stage func(dir string) error) error {
	final := s.runDir(m.RunID)
	if _, err := os.Stat(final); err == nil {
		return fmt.Errorf("store: run %q already exists (use resume)", m.RunID)
	}
	tmp, err := os.MkdirTemp(filepath.Join(s.dir, "runs"), ".staging-")
	if err != nil {
		return fmt.Errorf("store: staging run %q: %w", m.RunID, err)
	}
	defer os.RemoveAll(tmp) // no-op after a successful rename
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encoding manifest: %w", err)
	}
	if err := writeFileSynced(filepath.Join(tmp, "manifest.json"), append(b, '\n')); err != nil {
		return fmt.Errorf("store: writing manifest: %w", err)
	}
	if stage != nil {
		if err := stage(tmp); err != nil {
			return err
		}
	}
	// Every staged file is synced (stage syncs its own), so a crash
	// after the rename cannot leave a committed run with an empty or
	// short file; syncing runs/ after the rename makes the commit
	// itself durable.
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("store: committing run %q: %w", m.RunID, err)
	}
	if err := syncDir(filepath.Dir(final)); err != nil {
		return fmt.Errorf("store: committing run %q: %w", m.RunID, err)
	}
	return nil
}

// writeFileSynced writes data to a new file at path and syncs it to
// stable storage before closing it.
func writeFileSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir syncs a directory, making the entries created or renamed in
// it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// Resume opens an existing run for appending. spec must hash to the
// run's recorded key: resuming an interrupted campaign with a
// different matrix, seed or config would silently mix incomparable
// cells, the exact failure mode the store exists to prevent.
func (s *Store) Resume(runID string, spec fleet.CampaignSpec) (*Run, error) {
	m, err := s.Manifest(runID)
	if err != nil {
		return nil, err
	}
	key, err := SpecKey(spec)
	if err != nil {
		return nil, err
	}
	if key != m.SpecKey {
		return nil, fmt.Errorf("store: run %q was recorded for spec %.12s but the current spec hashes to %.12s — change the spec back or start a new run",
			runID, m.SpecKey, key)
	}
	return s.openRun(m)
}

// Manifest loads one run's manifest.
func (s *Store) Manifest(runID string) (Manifest, error) {
	if !runIDPattern.MatchString(runID) {
		return Manifest{}, fmt.Errorf("store: run id %q must match %s", runID, runIDPattern)
	}
	b, err := os.ReadFile(filepath.Join(s.runDir(runID), "manifest.json"))
	if err != nil {
		return Manifest{}, fmt.Errorf("store: run %q: %w", runID, err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return Manifest{}, fmt.Errorf("store: run %q manifest: %w", runID, err)
	}
	if m.Schema < MinSchemaVersion || m.Schema > SchemaVersion {
		return Manifest{}, fmt.Errorf("store: run %q has schema %d, this binary speaks %d-%d", runID, m.Schema, MinSchemaVersion, SchemaVersion)
	}
	return m, nil
}

// ListRuns returns every run's manifest, sorted by run ID. Staging
// leftovers and unreadable runs are skipped with their errors
// collected into the returned error (the readable manifests are still
// returned).
func (s *Store) ListRuns() ([]Manifest, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "runs"))
	if err != nil {
		return nil, fmt.Errorf("store: listing runs: %w", err)
	}
	var out []Manifest
	var broken []string
	for _, e := range entries {
		if !e.IsDir() || !runIDPattern.MatchString(e.Name()) {
			continue
		}
		m, err := s.Manifest(e.Name())
		if err != nil {
			broken = append(broken, fmt.Sprintf("%s (%v)", e.Name(), err))
			continue
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].RunID < out[j].RunID })
	if len(broken) > 0 {
		return out, fmt.Errorf("store: unreadable runs: %s", strings.Join(broken, "; "))
	}
	return out, nil
}

// Cells loads one run's persisted cells in append order, dropping a
// torn trailing line (a crashed writer) and any duplicate labels
// (first write wins — later appends of a label can only come from
// concurrent writers, which the store does not arbitrate between).
func (s *Store) Cells(runID string) ([]CellRecord, error) {
	if !runIDPattern.MatchString(runID) {
		return nil, fmt.Errorf("store: run id %q must match %s", runID, runIDPattern)
	}
	// The manifest names the cell encoding. A run directory without a
	// manifest at all (hand-built fixtures, fuzz corpora) is read as
	// JSONL, exactly as pre-columnar binaries did — but a manifest that
	// exists and won't parse must fail loudly: silently falling back
	// would read a nonexistent cells.jsonl for a columnar run and
	// report "never measured", discarding every completed cell.
	enc := EncodingJSONL
	switch m, err := s.Manifest(runID); {
	case err == nil:
		enc = m.Encoding
	case errors.Is(err, fs.ErrNotExist):
	default:
		return nil, err
	}
	if enc == EncodingColumnar {
		// The read has a window of its own, and the records decode into
		// arrays and strings of their own, none of them in the window.
		var out []CellRecord
		var window []byte
		if err := s.readColumnar(runID, &window, decodeCellPayload, func(rec CellRecord) { out = append(out, rec) }); err != nil {
			return nil, err
		}
		return out, nil
	}
	b, err := s.readCellsFile(runID, nil)
	if err != nil {
		return nil, err
	}
	return readCellsJSONL(runID, b)
}

// BandwidthCell is one stored cell as BandwidthCells reads it: the
// record's identity, its series' bandwidth column and its workload.
// Bandwidth and Workload are valid only until visit returns.
type BandwidthCell struct {
	Label    string
	Cloud    string
	Instance string
	Regime   string
	Rep      int
	// Bandwidth is the series' BandwidthGbps column, in a buffer of the
	// read's BandwidthScratch that the next cell reuses.
	Bandwidth []float64
	// Workload is the cell's served traffic. A columnar run's workload
	// is decoded into the read's BandwidthScratch, its Clients array
	// and latencies reused by the next cell.
	Workload *workload.CellMetrics
}

// BandwidthScratch holds the buffers behind BandwidthCells: a columnar
// run's read window (a JSONL run's whole file), one cell's bandwidth
// column and one cell's workload. The zero value is ready; one
// BandwidthScratch serves any number of runs read one after another,
// which then reuse its buffers instead of allocating their own.
type BandwidthScratch struct {
	file     []byte
	bw       []float64
	workload workloadScratch
}

// BandwidthCells reads one run's cells as Cells does — the same cells
// kept, in the same order, and the same errors — and calls visit with
// each cell's identity, bandwidth column and workload, the last two
// valid until visit returns. enc is the run's cell encoding, as its
// manifest names it. A columnar run's file is read frame by frame
// through the scratch's window, so the read holds about one frame of
// it, not the file; each frame is read for those fields alone, the
// column and workload decoded into scratch: the time, retransmissions,
// RTT and CPU columns are checked and stepped over, never decoded. A
// JSONL run is read and decoded whole.
func (s *Store) BandwidthCells(runID, enc string, scratch *BandwidthScratch, visit func(BandwidthCell)) error {
	if !runIDPattern.MatchString(runID) {
		return fmt.Errorf("store: run id %q must match %s", runID, runIDPattern)
	}
	cell := func(rec CellRecord, bw []float64) BandwidthCell {
		return BandwidthCell{Label: rec.Label, Cloud: rec.Cloud, Instance: rec.Instance, Regime: rec.Regime,
			Rep: rec.Rep, Bandwidth: bw, Workload: rec.Workload}
	}
	if enc == EncodingColumnar {
		decode := func(payload []byte) (CellRecord, error) { return decodeBandwidthPayload(payload, scratch) }
		return s.readColumnar(runID, &scratch.file, decode, func(rec CellRecord) { visit(cell(rec, scratch.bw)) })
	}
	b, err := s.readCellsFile(runID, scratch.file)
	if err != nil {
		return err
	}
	scratch.file = b
	recs, err := readCellsJSONL(runID, b)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		scratch.bw = rec.Series.AppendBandwidths(scratch.bw[:0])
		visit(cell(rec, scratch.bw))
	}
	return nil
}

// readColumnar reads a columnar run's cells.col with readFrames
// through *window. A window smaller than frameChunk, or than the whole
// file and 512 bytes when that is less, is first replaced by a new one
// of that size that also holds the file's first frame when the file
// does, with a sixteenth to spare: the frames of one campaign matrix,
// and the runs of one, are of about one size, so the frames and runs
// read next through the window mostly fit it too, and a small run
// reads into no more than a whole-file buffer. A run created but never
// measured has no file and reads as empty.
func (s *Store) readColumnar(runID string, window *[]byte, decode func(payload []byte) (CellRecord, error), keep func(CellRecord)) error {
	f, err := os.Open(filepath.Join(s.runDir(runID), cellsFileName(EncodingColumnar)))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: run %q cells: %w", runID, err)
	}
	defer f.Close()
	size := int64(-1)
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	want := frameChunk
	if size >= 0 && size+bytes.MinRead < frameChunk {
		want = int(size) + bytes.MinRead
	}
	if cap(*window) < want {
		var hdr [frameHeaderMax]byte
		n, _ := f.ReadAt(hdr[:], 0) // a short or failed read leaves the header to readFrames
		if payloadStart, payloadLen, _, err := nextFrame(hdr[:n], 0); err == nil && int64(payloadStart+payloadLen) <= size {
			want = max(want, payloadStart+payloadLen)
		}
		*window = make([]byte, 0, want+want/16)
	}
	if err := readFrames(f, size, window, decode, keep); err != nil {
		return fmt.Errorf("store: run %q cells: %w", runID, err)
	}
	return nil
}

// readCellsFile reads a JSONL run's cells file into dst's array when
// the file fits, else into a new array with a sixteenth to spare: the
// runs of one campaign matrix hold files of about one size, so the
// next run read through the same buffer fits too. A run created but
// never measured has no file and reads as empty.
func (s *Store) readCellsFile(runID string, dst []byte) ([]byte, error) {
	f, err := os.Open(filepath.Join(s.runDir(runID), cellsFileName(EncodingJSONL)))
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

// readCellsJSONL decodes the records of a cells.jsonl image.
func readCellsJSONL(runID string, b []byte) ([]CellRecord, error) {
	var out []CellRecord
	seen := make(map[string]bool)
	lines := strings.Split(string(b), "\n")
	complete := len(lines) - 1 // text after the last '\n' is torn
	for i := 0; i < complete; i++ {
		line := strings.TrimSpace(lines[i])
		if line == "" {
			continue
		}
		var rec CellRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("store: run %q cells line %d: %w", runID, i+1, err)
		}
		if rec.Schema < MinSchemaVersion || rec.Schema > SchemaVersion {
			return nil, fmt.Errorf("store: run %q cell %q has schema %d, this binary speaks %d-%d",
				runID, rec.Label, rec.Schema, MinSchemaVersion, SchemaVersion)
		}
		if rec.Series == nil || seen[rec.Label] {
			continue
		}
		seen[rec.Label] = true
		out = append(out, rec)
	}
	return out, nil
}

// Run is an open, appendable run. It implements fleet.Sink, so it
// plugs directly into fleet.CampaignSpec.Sink.
type Run struct {
	store    *Store
	manifest Manifest

	mu sync.Mutex
	f  *os.File
	// buf is Put's reusable encode buffer; its contents never outlive
	// one Put.
	buf []byte
	// completed caches the first Completed load so callers (a CLI
	// banner, then fleet.Run) do not re-read and re-decode the whole
	// cells file. It is never mutated after the load — callers hold it
	// without the lock.
	completed map[string]fleet.StoredCell
	// appended records cells Put through this handle, so a later
	// Completed call sees them: a worker retried on a request whose
	// response was lost (torn, stalled past the deadline) must restore
	// the cells it already persisted, not append duplicates.
	appended map[string]fleet.StoredCell
}

func (s *Store) openRun(m Manifest) (*Run, error) {
	path := filepath.Join(s.runDir(m.RunID), cellsFileName(m.Encoding))
	// A crashed writer can leave a torn trailing record (no final
	// newline / an incomplete frame). Readers already ignore it, but
	// appending after it would corrupt the next record — drop the torn
	// tail before opening for append.
	repair := truncateTornTail
	if m.Encoding == EncodingColumnar {
		repair = truncateTornFrames
	}
	if err := repair(path); err != nil {
		return nil, fmt.Errorf("store: repairing run %q cells: %w", m.RunID, err)
	}
	return s.appendRun(m)
}

// appendRun opens a run whose cells file holds no torn tail for
// appending.
func (s *Store) appendRun(m Manifest) (*Run, error) {
	path := filepath.Join(s.runDir(m.RunID), cellsFileName(m.Encoding))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening run %q cells: %w", m.RunID, err)
	}
	return &Run{store: s, manifest: m, f: f}, nil
}

// truncateTornTail truncates path to its last complete line. Missing
// files are fine (a fresh run).
func truncateTornTail(path string) error { return truncateAt(path, tornLineOffset) }

// truncateAt truncates path at the offset cut finds in the file, -1
// for none. Missing files are fine (a fresh run).
func truncateAt(path string, cut func(f *os.File, size int64) (int64, error)) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	off := int64(-1)
	info, err := f.Stat()
	if err == nil {
		off, err = cut(f, info.Size())
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil || off < 0 {
		return err
	}
	return os.Truncate(path, off)
}

// tailChunk is how much of a cells.jsonl file tornLineOffset reads at a
// time, back from its end.
const tailChunk = 4 << 10

// tornLineOffset returns the offset just past the last newline of f, a
// file of size bytes, -1 when f is empty or ends in one. It reads f
// back from its end, a chunk at a time, only as far as that newline.
func tornLineOffset(f *os.File, size int64) (int64, error) {
	buf := make([]byte, min(size, tailChunk))
	for end := size; end > 0; {
		start := max(end-tailChunk, 0)
		b := buf[:end-start]
		if _, err := f.ReadAt(b, start); err != nil {
			return 0, err
		}
		if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
			if off := start + int64(i) + 1; off < size {
				return off, nil
			}
			return -1, nil
		}
		end = start
	}
	if size == 0 {
		return -1, nil
	}
	return 0, nil
}

// Manifest returns the run's manifest.
func (r *Run) Manifest() Manifest { return r.manifest }

// Completed implements fleet.Sink: the persisted cells by label. The
// on-disk state is loaded once per open run and cached; cells
// appended through this handle afterwards are layered on top, so a
// second Completed call (a worker re-executing a batch whose response
// was lost in transit) restores them instead of re-running them.
// Callers must not mutate the returned map.
func (r *Run) Completed() (map[string]fleet.StoredCell, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.completed == nil {
		recs, err := r.store.Cells(r.manifest.RunID)
		if err != nil {
			return nil, err
		}
		out := make(map[string]fleet.StoredCell, len(recs))
		for _, rec := range recs {
			out[rec.Label] = fleet.StoredCell{Series: rec.Series, Workload: rec.Workload}
		}
		r.completed = out
	}
	if len(r.appended) == 0 {
		return r.completed, nil
	}
	// Merge into a fresh map: the cached load stays immutable (callers
	// read it without the lock) and the appended layer keeps growing.
	out := make(map[string]fleet.StoredCell, len(r.completed)+len(r.appended))
	for k, v := range r.completed {
		out[k] = v
	}
	for k, v := range r.appended {
		out[k] = v
	}
	return out, nil
}

// NewCellRecord builds the canonical persisted form of one successful
// cell result — exactly the record Run.Put appends, exported so the
// shard coordinator can hand the merge the cells its workers answered,
// byte-identical to what they persisted.
func NewCellRecord(res fleet.CellResult) (CellRecord, error) {
	if res.Err != nil {
		return CellRecord{}, fmt.Errorf("store: refusing to persist failed cell %s: %w", res.Cell.Label(), res.Err)
	}
	if res.Series == nil {
		return CellRecord{}, fmt.Errorf("store: cell %s has no series", res.Cell.Label())
	}
	return CellRecord{
		Schema:   cellSchema(res.Workload),
		Label:    res.Cell.Label(),
		Cloud:    res.Cell.Profile.Cloud,
		Instance: res.Cell.Profile.Instance,
		Regime:   res.Cell.Regime.Name,
		Rep:      res.Cell.Rep,
		Series:   res.Series,
		Workload: res.Workload,
	}, nil
}

// appendRecord appends rec to dst in the cell encoding enc: a CRC
// frame for columnar runs, a JSON line for JSONL runs. Put and the
// shard merge both write through it, so a merged record's bytes are
// the bytes a single-process run appends. A frame is sized before it is
// encoded: dst grows at most once, with a sixteenth to spare, so the
// buffer a caller reuses for the frames of one campaign's cells, which
// are of about one size, seldom grows again.
func appendRecord(dst []byte, enc string, rec CellRecord) ([]byte, error) {
	if enc == EncodingColumnar {
		if need := CellFrameLen(rec) + CellFrameHeadroom; cap(dst)-len(dst) < need {
			dst = slices.Grow(dst, need+need/16)
		}
		return AppendCellFrame(dst, rec)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return dst, fmt.Errorf("store: encoding cell %s: %w", rec.Label, err)
	}
	dst = append(dst, b...)
	return append(dst, '\n'), nil
}

// Put implements fleet.Sink: append one successful cell as a single
// fsynced record in the run's encoding (a JSONL line or a cells.col
// frame). Safe for concurrent use; errored cells are rejected rather
// than persisted.
func (r *Run) Put(res fleet.CellResult) error {
	rec, err := NewCellRecord(res)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := appendRecord(r.buf[:0], r.manifest.Encoding, rec)
	if err != nil {
		return err
	}
	r.buf = b
	if _, err := r.f.Write(b); err != nil {
		return fmt.Errorf("store: appending cell %s: %w", rec.Label, err)
	}
	if err := r.f.Sync(); err != nil {
		return fmt.Errorf("store: syncing cell %s: %w", rec.Label, err)
	}
	if r.appended == nil {
		r.appended = make(map[string]fleet.StoredCell)
	}
	r.appended[rec.Label] = fleet.StoredCell{Series: rec.Series, Workload: rec.Workload}
	return nil
}

// RecordPrecision records an adaptive campaign's achieved per-group
// precision in the run's manifest, atomically (write-temp-then-rename,
// like run creation): a crash mid-record leaves the old manifest
// intact, and the cells file is untouched either way. Groups without a
// precision record (a fixed-repetition result) are skipped; recording
// an empty set is a no-op, so callers can pass any CampaignResult's
// groups unconditionally.
func (r *Run) RecordPrecision(groups []fleet.GroupResult) error {
	var recs []PrecisionRecord
	for _, g := range groups {
		p := g.Precision
		if p == nil {
			continue
		}
		recs = append(recs, PrecisionRecord{
			Group:     g.Cloud + "/" + g.Instance + "/" + g.Regime,
			N:         p.N,
			HalfWidth: p.HalfWidth,
			RelErr:    p.RelErr,
			Converged: p.Converged,
			Diverging: p.Diverging,
		})
	}
	if len(recs) == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.manifest
	m.Precision = recs
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encoding manifest: %w", err)
	}
	dir := r.store.runDir(m.RunID)
	tmp, err := os.CreateTemp(dir, ".manifest-")
	if err != nil {
		return fmt.Errorf("store: recording precision for run %q: %w", m.RunID, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		return fmt.Errorf("store: recording precision for run %q: %w", m.RunID, err)
	}
	// Sync before the rename so a crash cannot replace the manifest
	// with an empty or short file, and sync the run directory after it
	// so the replacement itself survives.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: recording precision for run %q: %w", m.RunID, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: recording precision for run %q: %w", m.RunID, err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, "manifest.json")); err != nil {
		return fmt.Errorf("store: recording precision for run %q: %w", m.RunID, err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("store: recording precision for run %q: %w", m.RunID, err)
	}
	r.manifest = m
	return nil
}

// Close releases the run's append handle.
func (r *Run) Close() error { return r.f.Close() }
