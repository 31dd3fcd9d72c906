package figures

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// quick is the reduced-scale config used across these tests.
var quick = Config{Seed: 42, Scale: 0.1}

func TestConfigValidation(t *testing.T) {
	for _, s := range []float64{0, -1, 1.5} {
		if err := (Config{Scale: s}).Validate(); err == nil {
			t.Errorf("scale %g should fail", s)
		}
	}
	if err := (Config{Seed: 1, Scale: 1}).Validate(); err != nil {
		t.Errorf("full-scale config invalid: %v", err)
	}
}

func TestScaledHelpers(t *testing.T) {
	c := Config{Scale: 0.1}
	if got := c.scaled(50, 8); got != 8 {
		t.Errorf("scaled(50, 8) at 0.1 = %d, want floor 8", got)
	}
	if got := c.scaled(100, 5); got != 10 {
		t.Errorf("scaled(100, 5) at 0.1 = %d, want 10", got)
	}
	if got := c.scaledF(100, 5); got != 10 {
		t.Errorf("scaledF = %g", got)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ext-cpuburst", "ext-diurnal", "ext-scenarios", "ext-workload-classes",
		"figure10", "figure11", "figure12", "figure13", "figure14",
		"figure15", "figure16", "figure17", "figure18", "figure19",
		"figure1a", "figure1b", "figure2", "figure3a", "figure3b",
		"figure4", "figure5", "figure6", "figure7", "figure8",
		"figure9", "table1", "table2", "table3", "table4",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d artifacts, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("IDs[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestGenerateUnknown(t *testing.T) {
	if _, err := Generate("figure99", quick); err == nil {
		t.Error("unknown artifact should error")
	}
	if _, err := Generate("table1", Config{Scale: -1}); err == nil {
		t.Error("invalid config should error")
	}
}

func TestTableRender(t *testing.T) {
	tbl := Table{
		ID: "x", Title: "demo",
		Columns: []string{"A", "B"},
	}
	tbl.AddRow("1", "2")
	tbl.AddNote("a note %d", 7)
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "A  B", "1  2", "note: a note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// The survey artifacts' former spot checks (exact funnel cells, row
// counts, threshold samples) are subsumed by the byte-exact goldens
// in golden_test.go, which pin every cell instead of a sample.

func TestFigure14Validation(t *testing.T) {
	tbl, err := Generate("figure14", quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("figure14 rows: %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		errPct, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			t.Fatal(err)
		}
		if errPct > 5 {
			t.Errorf("%s: emulation error %.1f%% vs analytic expectation", row[0], errPct)
		}
	}
}

// TestMediumFigures smoke-tests every artifact at reduced scale and
// validates structural invariants.
func TestAllArtifactsGenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("generates every artifact")
	}
	results, err := GenerateEach(quick, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(IDs()) {
		t.Fatalf("generated %d artifacts, want %d", len(results), len(IDs()))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		tbl := r.Table
		if tbl.ID == "" || tbl.Title == "" {
			t.Errorf("artifact missing metadata: %+v", tbl.ID)
		}
		if len(tbl.Columns) == 0 || len(tbl.Rows) == 0 {
			t.Errorf("%s: empty table", tbl.ID)
		}
		for ri, row := range tbl.Rows {
			if len(row) != len(tbl.Columns) {
				t.Errorf("%s row %d has %d cells, want %d", tbl.ID, ri, len(row), len(tbl.Columns))
			}
		}
		var buf bytes.Buffer
		if err := tbl.Render(&buf); err != nil {
			t.Errorf("%s: render: %v", tbl.ID, err)
		}
	}
}

// TestFigure16Shape validates the headline orderings at small scale.
func TestFigure16Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the HiBench sweep")
	}
	tbl, err := Generate("figure16", quick)
	if err != nil {
		t.Fatal(err)
	}
	impact := map[string]float64{}
	for _, row := range tbl.Rows {
		v, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			t.Fatal(err)
		}
		impact[row[0]] = v
	}
	if impact["TS"] < 20 || impact["TS"] > 60 {
		t.Errorf("TS impact %.1f%% outside 25-50%% ballpark", impact["TS"])
	}
	if impact["KM"] > 15 {
		t.Errorf("KM impact %.1f%% should be small", impact["KM"])
	}
	if impact["KM"] >= impact["TS"] {
		t.Error("KM should react less than TS")
	}
}

// TestFigure19Shape validates the q82/q65 contrast at small scale.
func TestFigure19Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the depleting-budget sequences")
	}
	tbl, err := Generate("figure19", quick)
	if err != nil {
		t.Fatal(err)
	}
	byQuery := map[string][]string{}
	for _, row := range tbl.Rows {
		byQuery[row[0]] = row
	}
	q82, ok := byQuery["q82"]
	if !ok {
		t.Fatal("q82 missing")
	}
	q65, ok := byQuery["q65"]
	if !ok {
		t.Fatal("q65 missing")
	}
	if q82[5] != "false" {
		t.Errorf("q82 should not be a poor estimate: %v", q82)
	}
	if q65[5] != "true" {
		t.Errorf("q65 should be a poor estimate: %v", q65)
	}
}

func BenchmarkFigureTableRender(b *testing.B) {
	tbl, err := Generate("table2", quick)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		_ = tbl.Render(&buf)
	}
}

func tablesEqual(a, b Table) bool {
	if a.ID != b.ID || a.Title != b.Title || len(a.Columns) != len(b.Columns) ||
		len(a.Rows) != len(b.Rows) || len(a.Notes) != len(b.Notes) {
		return false
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return false
		}
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				return false
			}
		}
	}
	for i := range a.Notes {
		if a.Notes[i] != b.Notes[i] {
			return false
		}
	}
	return true
}

// TestGenerateEachParallelDeterminism proves parallel artifact
// generation is bit-identical to calling each generator sequentially.
func TestGenerateEachParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("generates every artifact")
	}
	results, err := GenerateEach(quick, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(IDs()) {
		t.Fatalf("GenerateEach returned %d results, want %d", len(results), len(IDs()))
	}
	for i, id := range IDs() {
		if results[i].ID != id {
			t.Fatalf("results[%d].ID = %s, want %s (ID order must be preserved)", i, results[i].ID, id)
		}
		if results[i].Err != nil {
			t.Fatalf("%s: %v", id, results[i].Err)
		}
	}
	// Deep-compare the cheap artifacts against sequential generation.
	for _, id := range []string{"table2", "figure1a", "figure2", "figure14"} {
		seq, err := Generate(id, quick)
		if err != nil {
			t.Fatal(err)
		}
		var par Table
		for _, r := range results {
			if r.ID == id {
				par = r.Table
			}
		}
		if !tablesEqual(seq, par) {
			t.Errorf("%s: parallel table differs from sequential", id)
		}
	}
	if _, err := GenerateEach(Config{Scale: -1}, 2); err == nil {
		t.Error("invalid config should error")
	}
}
