package store

// Shard merge: recombining the per-shard stores of a distributed
// campaign (internal/shard) into one complete run. The merge is where
// the distributed path rejoins the single-process determinism
// contract, so it is strict by design: shards must agree on every
// byte of campaign identity (SpecKey, MatrixKey, the full spec
// identity including the stopping policy, encoding, fingerprints,
// creation time), and a disagreement is a loud error — never a
// silent skip. The one tolerated overlap is a byte-identical
// duplicate label, which is exactly what worker-failure reassignment
// produces: the dead worker persisted some cells of a shard before
// dying and the retry re-executed them elsewhere; because every
// cell's bytes are a pure function of (seed, label), both copies are
// equal, and merge keeps one. Differing duplicates mean two stores
// that were never part of the same campaign, and the merge refuses.

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"cloudvar/internal/frame"
)

// ShardData is one shard store's complete contents — what shard.Run
// hands the merge, built from the cells its workers answered, and what
// a worker serves on GET /v1/shard. It round-trips through
// Encode/DecodeShardData.
type ShardData struct {
	Manifest Manifest
	Cells    []CellRecord
}

// LoadShard reads one shard-stamped run out of a store. Unstamped
// runs are refused: merging a complete run "as a shard" would
// silently double cells.
func LoadShard(s *Store, runID string) (ShardData, error) {
	m, err := s.Manifest(runID)
	if err != nil {
		return ShardData{}, err
	}
	if m.Shard == nil {
		return ShardData{}, fmt.Errorf("store: run %q is not shard-stamped", runID)
	}
	cells, err := s.Cells(runID)
	if err != nil {
		return ShardData{}, err
	}
	d := ShardData{Manifest: m, Cells: cells}
	if err := d.Validate(); err != nil {
		return ShardData{}, err
	}
	return d, nil
}

// minCellFrame is the smallest complete cell frame: a one-byte length
// and the CRC around a payload of one-byte varints, empty strings, the
// fixed64 interval and the workload flag.
const minCellFrame = 1 + 4 + 17

// Encode serialises the shard data for transport: the manifest as
// length-prefixed JSON, the cell count, then one AppendCellFrame frame
// per cell — whichever encoding the shard store uses on disk, cells
// cross the wire as frames. The body is written into one buffer sized
// up front.
//
//	shardData := uvarint(len(manifest)) json(manifest) uvarint(ncells) frame{ncells}
func (d ShardData) Encode() ([]byte, error) {
	m, err := json.Marshal(d.Manifest)
	if err != nil {
		return nil, fmt.Errorf("store: encoding shard manifest: %w", err)
	}
	size := frame.UvarintLen(uint64(len(m))) + len(m) + frame.UvarintLen(uint64(len(d.Cells))) + CellFrameHeadroom
	for _, rec := range d.Cells {
		size += CellFrameLen(rec)
	}
	b := binary.AppendUvarint(make([]byte, 0, size), uint64(len(m)))
	b = append(b, m...)
	b = binary.AppendUvarint(b, uint64(len(d.Cells)))
	for _, rec := range d.Cells {
		if b, err = AppendCellFrame(b, rec); err != nil {
			return nil, fmt.Errorf("store: encoding shard data: %w", err)
		}
	}
	return b, nil
}

// DecodeShardData parses and validates transported shard data. The
// body must hold exactly the encoded cell count of complete frames:
// truncation anywhere (a frame boundary included), a CRC mismatch or
// trailing bytes is an error. It never panics on malformed input, and
// accepted data re-encodes to an equivalent value (the fuzz target's
// recovery contract).
func DecodeShardData(b []byte) (ShardData, error) {
	d, err := decodeShardData(b)
	if err != nil {
		return ShardData{}, fmt.Errorf("store: decoding shard data: %w", err)
	}
	if err := d.Validate(); err != nil {
		return ShardData{}, err
	}
	return d, nil
}

func decodeShardData(b []byte) (ShardData, error) {
	r := frame.NewReader(bytes.NewReader(b), int64(len(b)), nil)
	m, err := r.Str()
	if err != nil {
		return ShardData{}, fmt.Errorf("manifest: %w", err)
	}
	var d ShardData
	if err := json.Unmarshal(m, &d.Manifest); err != nil {
		return ShardData{}, fmt.Errorf("manifest: %w", err)
	}
	count, err := r.Uvarint()
	if err != nil {
		return ShardData{}, fmt.Errorf("cell count: %w", err)
	}
	if left := len(b) - int(r.Offset()); count > uint64(left)/minCellFrame {
		return ShardData{}, fmt.Errorf("%d cells cannot fit in the %d bytes left", count, left)
	}
	if count > 0 {
		d.Cells = make([]CellRecord, count)
	}
	for i := range d.Cells {
		if d.Cells[i], err = readCell(r, decodeCellPayload); err != nil {
			return ShardData{}, fmt.Errorf("cell %d of %d: %w", i, count, err)
		}
	}
	if left := len(b) - int(r.Offset()); left != 0 {
		return ShardData{}, fmt.Errorf("%d trailing bytes after %d cells", left, count)
	}
	return d, nil
}

// Validate checks the shard data's internal invariants: a stamped,
// schema-compatible manifest and well-formed cells that belong to the
// manifest's campaign matrix.
func (d ShardData) Validate() error {
	m := d.Manifest
	if !ValidRunID(m.RunID) {
		return fmt.Errorf("store: shard data run id %q must match %s", m.RunID, runIDPattern)
	}
	if m.Schema < MinSchemaVersion || m.Schema > SchemaVersion {
		return fmt.Errorf("store: shard data has schema %d, this binary speaks %d-%d", m.Schema, MinSchemaVersion, SchemaVersion)
	}
	if m.Shard == nil {
		return fmt.Errorf("store: shard data for run %q has no shard stamp", m.RunID)
	}
	if err := m.Shard.Validate(); err != nil {
		return err
	}
	if m.SpecKey == "" || m.MatrixKey == "" {
		return fmt.Errorf("store: shard data for run %q is missing its spec keys", m.RunID)
	}
	if _, err := NormalizeEncoding(m.Encoding); err != nil {
		return err
	}
	profiles := make(map[string]bool, len(m.Spec.Profiles))
	for _, p := range m.Spec.Profiles {
		profiles[p.Cloud+"/"+p.Instance] = true
	}
	regimes := make(map[string]bool, len(m.Spec.Regimes))
	for _, r := range m.Spec.Regimes {
		regimes[r.Name] = true
	}
	seen := make(map[string]bool, len(d.Cells))
	for i, rec := range d.Cells {
		if rec.Schema < MinSchemaVersion || rec.Schema > SchemaVersion {
			return fmt.Errorf("store: shard cell %d has schema %d, this binary speaks %d-%d", i, rec.Schema, MinSchemaVersion, SchemaVersion)
		}
		if rec.Series == nil {
			return fmt.Errorf("store: shard cell %d (%s) has no series", i, rec.Label)
		}
		if rec.Rep < 0 {
			return fmt.Errorf("store: shard cell %d (%s) has negative repetition", i, rec.Label)
		}
		if want := fmt.Sprintf("%s/%s/%s/rep%d", rec.Cloud, rec.Instance, rec.Regime, rec.Rep); rec.Label != want {
			return fmt.Errorf("store: shard cell %d label %q disagrees with its fields (%s)", i, rec.Label, want)
		}
		if !profiles[rec.Cloud+"/"+rec.Instance] || !regimes[rec.Regime] {
			return fmt.Errorf("store: shard cell %s is outside the manifest's campaign matrix", rec.Label)
		}
		if seen[rec.Label] {
			return fmt.Errorf("store: shard data for run %q holds duplicate cell %s", m.RunID, rec.Label)
		}
		seen[rec.Label] = true
	}
	return nil
}

// MergeShards recombines per-shard stores into one complete run named
// runID inside dst. The merged run's manifest is the shards' shared
// manifest with the stamp removed and the schema recomputed, and its
// cells are every shard's cells in canonical matrix order (profiles,
// then regimes, then repetitions — the spec's enumeration order), so
// the merged store is byte-identical per cell to a single-process run
// of the same spec. Shards disagreeing on any campaign identity —
// SpecKey, MatrixKey, the spec identity (stopping policy included),
// encoding, fingerprints, shard count — are refused loudly, as are
// overlapping cells whose bytes differ. Each record is encoded once,
// in the run's own encoding, and those bytes are both the duplicate
// check and the merged cells file — so a cell a pre-flag-2 shard store
// holds as flag 1 compares, and is written, as flag 2.
//
// want is the coordinator's completeness expectation: the labels of
// every successfully measured cell (exactly the set some worker
// persisted — fleet.CampaignResult.StoredLabels). The merge refuses
// when the union of shard cells misses any of them or holds a cell
// outside the set: a shard store lost with a dead worker must surface
// as a loud error, never as a silently thinner run. nil skips the
// check, for offline merges with no execution record. The returned
// run is open for appending precision records (RecordPrecision).
func MergeShards(dst *Store, runID string, shards []ShardData, want []string) (*Run, error) {
	if !runIDPattern.MatchString(runID) {
		return nil, fmt.Errorf("store: run id %q must match %s", runID, runIDPattern)
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("store: merging zero shards")
	}
	for _, d := range shards {
		if err := d.Validate(); err != nil {
			return nil, err
		}
	}
	ref := shards[0].Manifest
	refStop, err := json.Marshal(ref.Spec.Stopping)
	if err != nil {
		return nil, fmt.Errorf("store: hashing stopping identity: %w", err)
	}
	refSpec, err := json.Marshal(ref.Spec)
	if err != nil {
		return nil, fmt.Errorf("store: hashing spec identity: %w", err)
	}
	refPrints, err := json.Marshal(ref.Fingerprints)
	if err != nil {
		return nil, fmt.Errorf("store: hashing fingerprints: %w", err)
	}
	indexes := make(map[int]string, len(shards))
	for _, d := range shards {
		m := d.Manifest
		if m.SpecKey != ref.SpecKey {
			return nil, fmt.Errorf("store: refusing merge: shard %q has spec key %.12s, shard %q has %.12s — these stores were not produced by the same campaign",
				m.RunID, m.SpecKey, ref.RunID, ref.SpecKey)
		}
		stop, err := json.Marshal(m.Spec.Stopping)
		if err != nil {
			return nil, fmt.Errorf("store: hashing stopping identity: %w", err)
		}
		if !bytes.Equal(stop, refStop) {
			return nil, fmt.Errorf("store: refusing merge: shard %q disagrees with shard %q on the stopping identity — an adaptive schedule from one policy cannot be merged with another's",
				m.RunID, ref.RunID)
		}
		if m.MatrixKey != ref.MatrixKey {
			return nil, fmt.Errorf("store: refusing merge: shard %q has matrix key %.12s, shard %q has %.12s",
				m.RunID, m.MatrixKey, ref.RunID, ref.MatrixKey)
		}
		spec, err := json.Marshal(m.Spec)
		if err != nil {
			return nil, fmt.Errorf("store: hashing spec identity: %w", err)
		}
		if !bytes.Equal(spec, refSpec) {
			return nil, fmt.Errorf("store: refusing merge: shard %q disagrees with shard %q on the spec identity", m.RunID, ref.RunID)
		}
		if m.Encoding != ref.Encoding {
			return nil, fmt.Errorf("store: refusing merge: shard %q uses encoding %q, shard %q uses %q", m.RunID, m.Encoding, ref.RunID, ref.Encoding)
		}
		prints, err := json.Marshal(m.Fingerprints)
		if err != nil {
			return nil, fmt.Errorf("store: hashing fingerprints: %w", err)
		}
		if !bytes.Equal(prints, refPrints) {
			return nil, fmt.Errorf("store: refusing merge: shard %q disagrees with shard %q on the platform fingerprints", m.RunID, ref.RunID)
		}
		if m.CreatedUnix != ref.CreatedUnix {
			return nil, fmt.Errorf("store: refusing merge: shard %q was created at %d, shard %q at %d", m.RunID, m.CreatedUnix, ref.RunID, ref.CreatedUnix)
		}
		if m.ExperimentSpecHash != ref.ExperimentSpecHash {
			return nil, fmt.Errorf("store: refusing merge: shard %q disagrees with shard %q on the experiment spec", m.RunID, ref.RunID)
		}
		if m.Shard.Count != ref.Shard.Count {
			return nil, fmt.Errorf("store: refusing merge: shard %q is stamped %d/%d, shard %q is stamped %d/%d",
				m.RunID, m.Shard.Index, m.Shard.Count, ref.RunID, ref.Shard.Index, ref.Shard.Count)
		}
		if prev, taken := indexes[m.Shard.Index]; taken {
			return nil, fmt.Errorf("store: refusing merge: shards %q and %q both claim index %d/%d", prev, m.RunID, m.Shard.Index, m.Shard.Count)
		}
		indexes[m.Shard.Index] = m.RunID
	}

	// Canonical matrix order: profiles as declared, then regimes, then
	// repetitions — the fleet's enumeration order, so the merged file
	// matches what a sequential single-process run persists. The sort
	// is stable, so every label's copies end up adjacent in shard order.
	profileIdx := make(map[string]int, len(ref.Spec.Profiles))
	for i, p := range ref.Spec.Profiles {
		profileIdx[p.Cloud+"/"+p.Instance] = i
	}
	regimeIdx := make(map[string]int, len(ref.Spec.Regimes))
	for i, r := range ref.Spec.Regimes {
		regimeIdx[r.Name] = i
	}
	var cells []mergeCell
	for s := range shards {
		for i := range shards[s].Cells {
			// Validation pinned every record to the manifest's matrix, so
			// the index lookups cannot miss.
			rec := &shards[s].Cells[i]
			cells = append(cells, mergeCell{profileIdx[rec.Cloud+"/"+rec.Instance], regimeIdx[rec.Regime], rec.Rep, rec})
		}
	}
	slices.SortStableFunc(cells, func(a, b mergeCell) int {
		return cmp.Or(cmp.Compare(a.profile, b.profile), cmp.Compare(a.regime, b.regime), cmp.Compare(a.rep, b.rep))
	})

	if want != nil {
		have := make(map[string]bool, len(cells))
		for _, c := range cells {
			have[c.rec.Label] = true
		}
		wantSet := make(map[string]bool, len(want))
		missing := 0
		first := ""
		for _, label := range want {
			wantSet[label] = true
			if !have[label] {
				missing++
				if first == "" {
					first = label
				}
			}
		}
		if missing > 0 {
			return nil, fmt.Errorf("store: refusing merge: %d of %d expected cells are in no shard store (first missing: %s) — a worker's persisted cells were lost without re-execution, and a silently thinner run must never commit as complete", missing, len(want), first)
		}
		for _, c := range cells {
			if !wantSet[c.rec.Label] {
				return nil, fmt.Errorf("store: refusing merge: shard cell %s is not in the campaign's expected cell set", c.rec.Label)
			}
		}
	}

	m := ref
	m.RunID = runID
	m.Shard = nil
	m.Precision = nil
	// The merged run is complete: restore the schema a single-process
	// run of the same spec would have stamped (the shard stamp's
	// schema-6 floor no longer applies).
	m.Schema = m.Spec.Schema
	if m.Encoding == EncodingColumnar && m.Schema < 4 {
		m.Schema = 4
	}
	err = dst.commitRun(m, func(dir string) error {
		return writeMergedCells(filepath.Join(dir, cellsFileName(m.Encoding)), m.Encoding, cells)
	})
	if err != nil {
		return nil, err
	}
	// The cells file was staged whole, so unlike a resumed run there is
	// no torn tail to repair before appending.
	return dst.appendRun(m)
}

// mergeCell is one shard record with its canonical sort key.
type mergeCell struct {
	profile, regime, rep int
	rec                  *CellRecord
}

// writeMergedCells writes the canonically sorted shard records to path
// as one cell file, encoding each record once in enc. Those bytes are
// both the duplicate check and the file: a label's copies are
// adjacent, and a later copy is legitimate only when its bytes equal
// the kept copy's — the worker-failure reassignment overlap; anything
// else is two different measurements claiming one identity, which must
// never merge. The file is synced before it is closed, because the
// caller commits it by renaming its directory into place.
func writeMergedCells(path, enc string, cells []mergeCell) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("store: writing merged cells: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	var kept, cur []byte
	for i, c := range cells {
		if cur, err = appendRecord(cur[:0], enc, *c.rec); err != nil {
			return err
		}
		if i > 0 && c.rec.Label == cells[i-1].rec.Label {
			if !bytes.Equal(cur, kept) {
				return fmt.Errorf("store: refusing merge: cell %s appears in two shards with different bytes — the shards were not produced by the same deterministic campaign", c.rec.Label)
			}
			continue
		}
		if _, err := w.Write(cur); err != nil {
			return fmt.Errorf("store: writing merged cells: %w", err)
		}
		kept, cur = cur, kept
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("store: writing merged cells: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: writing merged cells: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: writing merged cells: %w", err)
	}
	return nil
}
