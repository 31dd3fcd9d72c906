// Package testutil holds the test helpers shared across the
// orchestration and persistence layers: deterministic campaign-spec
// construction, temp-store setup, byte-level result encoding, and
// cell-label assertions. Keeping them in one place means every
// package proves determinism against the same encoding — "tests
// compare bytes, not vibes" (docs/ARCHITECTURE.md) — instead of each
// test file growing a subtly different notion of equality.
package testutil

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"cloudvar/internal/cloudmodel"
	"cloudvar/internal/fleet"
	"cloudvar/internal/store"
	"cloudvar/internal/trace"
)

// EC2Spec returns a small single-profile campaign: one c5.xlarge,
// full-speed and 10-30 regimes, two repetitions, 60 emulated seconds.
// The matrix is the smallest one that still exercises regime and
// repetition grouping.
func EC2Spec(tb testing.TB, seed uint64, workers int) fleet.CampaignSpec {
	tb.Helper()
	ec2, err := cloudmodel.EC2Profile("c5.xlarge")
	if err != nil {
		tb.Fatal(err)
	}
	return fleet.CampaignSpec{
		Profiles:    []cloudmodel.Profile{ec2},
		Regimes:     []trace.Regime{trace.FullSpeed, trace.Send10R30},
		Repetitions: 2,
		Config:      cloudmodel.DefaultCampaignConfig(60),
		Seed:        seed,
		Workers:     workers,
	}
}

// TwoCloudSpec returns a two-profile campaign (EC2 c5.xlarge + 4-core
// GCE) over all three standard regimes, two repetitions, 120 emulated
// seconds — 12 cells, the matrix the fleet determinism tests run.
func TwoCloudSpec(tb testing.TB, seed uint64, workers int) fleet.CampaignSpec {
	tb.Helper()
	ec2, err := cloudmodel.EC2Profile("c5.xlarge")
	if err != nil {
		tb.Fatal(err)
	}
	gce, err := cloudmodel.GCEProfile(4)
	if err != nil {
		tb.Fatal(err)
	}
	return fleet.CampaignSpec{
		Profiles:    []cloudmodel.Profile{ec2, gce},
		Repetitions: 2,
		Config:      cloudmodel.DefaultCampaignConfig(120),
		Seed:        seed,
		Workers:     workers,
	}
}

// TempStore opens a fresh results store under tb's temp directory.
func TempStore(tb testing.TB) *store.Store {
	tb.Helper()
	st, err := store.Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// JSONString renders s as a JSON string literal — for splicing
// tb.TempDir() paths into spec-file fixtures.
func JSONString(tb testing.TB, s string) string {
	tb.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		tb.Fatal(err)
	}
	return string(b)
}

// SpecKeys returns a spec's two content addresses (SpecKey,
// MatrixKey) as one comparable value.
func SpecKeys(tb testing.TB, spec fleet.CampaignSpec) [2]string {
	tb.Helper()
	key, err := store.SpecKey(spec)
	if err != nil {
		tb.Fatal(err)
	}
	matrix, err := store.Identity(spec).MatrixKey()
	if err != nil {
		tb.Fatal(err)
	}
	return [2]string{key, matrix}
}

// SeriesEqual reports whether two series are identical point for
// point.
func SeriesEqual(a, b *trace.Series) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Label != b.Label || a.IntervalSec != b.IntervalSec || len(a.Points) != len(b.Points) {
		return false
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			return false
		}
	}
	return true
}

// EncodeResult renders every observable fact of a campaign result —
// cell order, labels, errors, full series, summaries, group
// statistics — so two results can be compared byte for byte. This is
// the canonical encoding the determinism tests (worker counts,
// resume, scenarios) all diff.
func EncodeResult(tb testing.TB, res fleet.CampaignResult) string {
	tb.Helper()
	var b strings.Builder
	for _, c := range res.Cells {
		fmt.Fprintf(&b, "cell %s err=%v summary=%+v\n", c.Cell.Label(), c.Err, c.Summary)
		if c.Series != nil {
			series, err := json.MarshalIndent(c.Series, "", "  ")
			if err != nil {
				tb.Fatal(err)
			}
			b.Write(series)
			b.WriteByte('\n')
		}
		if c.Workload != nil {
			wl, err := json.Marshal(c.Workload)
			if err != nil {
				tb.Fatal(err)
			}
			fmt.Fprintf(&b, "workload %s\n", wl)
		}
	}
	for _, g := range res.Groups {
		fmt.Fprintf(&b, "group %s/%s/%s failed=%d samples=%v summary=%+v ciErr=%v\n",
			g.Cloud, g.Instance, g.Regime, g.Failed, g.Result.Samples, g.Result.Summary, g.Result.MedianCIErr)
		if g.Precision != nil {
			// Adaptive runs: the achieved precision is part of the
			// observable result, so the determinism diffs cover the
			// stopping decision itself.
			fmt.Fprintf(&b, "precision %+v\n", *g.Precision)
		}
		for _, cl := range g.Classes {
			fmt.Fprintf(&b, "class %s requests=%d samples=%v summary=%+v\n",
				cl.Result.Name, cl.Requests, cl.Result.Samples, cl.Result.Summary)
		}
	}
	return b.String()
}

// AssertCellLabels fails tb unless res's cells carry exactly the
// spec's enumeration-order labels — the stable identities that key
// substreams, series names and store records.
func AssertCellLabels(tb testing.TB, spec fleet.CampaignSpec, res fleet.CampaignResult) {
	tb.Helper()
	cells := spec.Cells()
	if len(res.Cells) != len(cells) {
		tb.Fatalf("result has %d cells, spec enumerates %d", len(res.Cells), len(cells))
	}
	for i, c := range cells {
		if got := res.Cells[i].Cell.Label(); got != c.Label() {
			tb.Fatalf("cell %d labelled %q, want %q (enumeration order)", i, got, c.Label())
		}
		if res.Cells[i].Err == nil && res.Cells[i].Series.Label != c.Label() {
			tb.Fatalf("cell %d series labelled %q, want %q", i, res.Cells[i].Series.Label, c.Label())
		}
	}
}
