package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"
)

func TestNormalize(t *testing.T) {
	for _, c := range []struct{ sym, want string }{
		{"stats.Median", "stats.Median"},
		// A generic instantiation whose shape nests brackets: counting
		// only to the first ']' left "pool.Collect" unlinked.
		{"fleet/pool.Collect[go.shape.struct { ID string; Columns []string; Rows [][]string }]", "fleet/pool.Collect"},
		{"fleet/pool.Collect[go.shape.struct { ID string; Rows [][]string }].func1", "fleet/pool.Collect"},
		{"fleet/pool.CollectWorker[go.shape.*uint8].func1.deferwrap1", "fleet/pool.CollectWorker"},
		{"fleet/pool.CollectWorker[go.shape.*uint8].gowrap1", "fleet/pool.CollectWorker"},
		{"figures.Figure13.func2", "figures.Figure13"},
		{"figures.Figure13.func2.1", "figures.Figure13"},
		{"fleet.executeCells.func1.12", "fleet.executeCells"},
		{"figures.init.3", "figures.init"},
		{"store.(*Run).Put", "store.Run.Put"},
		{"store.(*Run).Completed.deferwrap1", "store.Run.Completed"},
		{"shard.(*WorkerServer).handleClose-fm", "shard.WorkerServer.handleClose"},
		{"core.Fingerprint.Matches", "core.Fingerprint.Matches"},
		{"core.Fingerprint.Matches.func1", "core.Fingerprint.Matches"},
		{"sketch.(*Set[go.shape.int]).Add", "sketch.Set.Add"},
		{"sketch.(*Set[go.shape.int]).Add.func1", "sketch.Set.Add"},
		{"sketch.Pair[go.shape.int,go.shape.string].Swap", "sketch.Pair.Swap"},
		{"trace.Walk-range1", "trace.Walk"},
		// Digits that end a declared name are not closure numbers.
		{"simrand.splitmix64", "simrand.splitmix64"},
		{"figures.f1", "figures.f1"},
	} {
		if got := normalize(c.sym); got != c.want {
			t.Errorf("normalize(%q) = %q, want %q", c.sym, got, c.want)
		}
	}
}

func TestTextSymbols(t *testing.T) {
	nm := "  4e76a0 T cloudvar/internal/fleet/pool.DefaultWorkers\n" +
		"  5ceac0 T cloudvar/internal/fleet/pool.Collect[go.shape.struct { ID string; Notes []string }]\n" +
		"  6b66c0 R cloudvar/internal/fleet/pool..dict.Collect[cloudvar/internal/figures.Table]\n" +
		"  6e16c0 t cloudvar/internal/store.(*Run).flush\n" +
		"  7a0000 D cloudvar/internal/store.errClosed\n" +
		"         U runtime.morestack\n"
	want := []string{
		"cloudvar/internal/fleet/pool.DefaultWorkers",
		"cloudvar/internal/fleet/pool.Collect[go.shape.struct { ID string; Notes []string }]",
		"cloudvar/internal/store.(*Run).flush",
	}
	if got := textSymbols([]byte(nm)); !slices.Equal(got, want) {
		t.Errorf("textSymbols = %q, want %q", got, want)
	}
}

func TestDeclName(t *testing.T) {
	src := `package p
func F() {}
func (r *Run) Put() {}
func (f Fingerprint) Matches() {}
func (s *Set[T]) Add() {}
func (p Pair[K, V]) Swap() {}
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range f.Decls {
		got = append(got, declName(d.(*ast.FuncDecl)))
	}
	want := []string{"F", "Run.Put", "Fingerprint.Matches", "Set.Add", "Pair.Swap"}
	if !slices.Equal(got, want) {
		t.Errorf("declName = %q, want %q", got, want)
	}
}

func TestCheck(t *testing.T) {
	declared := map[string]decl{
		"a.Linked":   {pos: "internal/a/a.go:1", lines: 3},
		"a.Dead":     {pos: "internal/a/a.go:5", lines: 4},
		"a.Kept":     {pos: "internal/a/a.go:9", lines: 2},
		"a.KeptUsed": {pos: "internal/a/a.go:12", lines: 2},
	}
	linked := map[string]bool{"a.Linked": true, "a.KeptUsed": true}
	keep := []keepEntry{
		{"a.Kept", comparator, "reference"},
		{"a.KeptUsed", testInput, "now linked"},
		{"a.Gone", recipe, "deleted"},
	}
	got := check(declared, linked, keep)
	want := []string{
		"kept but linked: a.KeptUsed",
		"kept but not declared: a.Gone",
		"internal/a/a.go:5: a.Dead is linked by no binary (4 lines)",
	}
	if !slices.Equal(got, want) {
		t.Errorf("check =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if got := check(declared, map[string]bool{"a.Linked": true, "a.Dead": true, "a.KeptUsed": true}, keep[:1]); len(got) != 0 {
		t.Errorf("check on a clean tree = %q, want nothing", got)
	}
}

// TestKeepList holds the committed keep-list to its rules: at most 20
// entries, each named once, with a known class and a reason.
func TestKeepList(t *testing.T) {
	if len(keep) > 20 {
		t.Errorf("keep-list holds %d entries, want at most 20", len(keep))
	}
	seen := map[string]bool{}
	for _, k := range keep {
		if seen[k.fn] {
			t.Errorf("%s is kept twice", k.fn)
		}
		seen[k.fn] = true
		if k.class != comparator && k.class != testInput && k.class != recipe {
			t.Errorf("%s has unknown class %q", k.fn, k.class)
		}
		if k.reason == "" {
			t.Errorf("%s is kept without a reason", k.fn)
		}
	}
}
