// Package figures regenerates every table and figure in the paper's
// evaluation. Each generator returns a Table: the same rows/series the
// paper reports, plus shape-check notes recording how the reproduction
// compares qualitatively with the published result. cmd/reproduce and
// the repository-level benchmarks are thin wrappers over this package.
//
// Generators accept a Config whose Scale knob shrinks durations and
// repetition counts proportionally, so the full pipeline can run both
// as quick tests (Scale ~0.1) and as faithful regenerations (Scale 1).
package figures

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"cloudvar/internal/fleet/pool"
)

// Config parameterises a figure generation run.
type Config struct {
	// Seed drives all randomness; equal seeds give identical tables.
	Seed uint64
	// Scale in (0, 1] multiplies durations and repetition counts.
	// Scale 1 reproduces the paper's experiment sizes (within reason:
	// week-long campaigns are capped at emulated days, which the
	// token-bucket dynamics make equivalent).
	Scale float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Scale <= 0 || c.Scale > 1 {
		return fmt.Errorf("figures: scale %g outside (0, 1]", c.Scale)
	}
	return nil
}

// scaled returns max(min, round(base*scale)).
func (c Config) scaled(base, min int) int {
	n := int(float64(base)*c.Scale + 0.5)
	if n < min {
		n = min
	}
	return n
}

// scaledF returns max(min, base*scale).
func (c Config) scaledF(base, min float64) float64 {
	v := base * c.Scale
	if v < min {
		v = min
	}
	return v
}

// Table is a rendered experimental artifact: an identifier matching
// the paper ("figure3a", "table2", ...), column headers, string rows,
// and notes comparing the measured shape with the published one.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row from formatted values.
func (t *Table) AddRow(values ...string) { t.Rows = append(t.Rows, values) }

// AddNote appends an observation.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes an aligned text rendering.
func (t Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
			} else {
				parts[i] = cell
			}
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}

	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, line(t.Columns)); err != nil {
		return err
	}
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(rule)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Generator produces one paper artifact.
type Generator func(Config) (Table, error)

// registry maps artifact IDs to generators; populated by init
// functions in the sibling files.
var registry = map[string]Generator{}

func register(id string, g Generator) {
	if _, dup := registry[id]; dup {
		panic("figures: duplicate artifact " + id)
	}
	registry[id] = g
}

// IDs returns all registered artifact identifiers, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Generate produces one artifact by ID.
func Generate(id string, cfg Config) (Table, error) {
	if err := cfg.Validate(); err != nil {
		return Table{}, err
	}
	g, ok := registry[id]
	if !ok {
		return Table{}, fmt.Errorf("figures: unknown artifact %q (known: %s)",
			id, strings.Join(IDs(), ", "))
	}
	return g(cfg)
}

// ArtifactResult pairs one artifact ID with its generation outcome.
type ArtifactResult struct {
	ID    string
	Table Table
	Err   error
}

// GenerateEach produces every artifact concurrently across at most
// workers goroutines (<= 0 means GOMAXPROCS) with per-artifact error
// isolation: one failing generator does not stop the others. Results
// come back in ID order regardless of scheduling, and each generator
// seeds its own randomness from cfg.Seed, so the tables are
// bit-identical to sequential generation.
func GenerateEach(cfg Config, workers int) ([]ArtifactResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ids := IDs()
	tables, errs := pool.Collect(len(ids), workers, func(i int) (Table, error) {
		return registry[ids[i]](cfg)
	})
	out := make([]ArtifactResult, len(ids))
	for i, id := range ids {
		out[i] = ArtifactResult{ID: id, Table: tables[i]}
		if errs[i] != nil {
			out[i].Err = fmt.Errorf("figures: generating %s: %w", id, errs[i])
		}
	}
	return out, nil
}

// f formats a float compactly.
func f(v float64) string { return fmt.Sprintf("%.2f", v) }

// f1 formats with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// d formats an int.
func d(v int) string { return fmt.Sprintf("%d", v) }
