// Command reproduce regenerates the paper's tables and figures.
//
// Usage:
//
//	reproduce -spec FILE
//	reproduce [-artifact all|table1|figure3a|...] [-seed N] [-scale F]
//	          [-workers N] [-outdir DIR]
//
// -spec reads the artifacts section of an experiment-spec document
// (see examples/*/experiment.json); the flags are the legacy path and
// synthesize the same document internally, so both express the same
// versioned artifact.
//
// Artifacts are generated concurrently across -workers goroutines
// (default: GOMAXPROCS); output is bit-identical at any worker count.
// With -outdir, each artifact is also written to DIR/<id>.txt. A
// failing artifact no longer aborts the run: every other artifact is
// still generated and rendered, the failures are summarised on stderr,
// and the exit status is non-zero.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"cloudvar/internal/expspec"
	"cloudvar/internal/figures"
	"cloudvar/internal/fleet/pool"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "experiment-spec file with an artifacts section; replaces the flags below")
	artifact := fs.String("artifact", "all", "artifact ID to regenerate, or 'all'")
	seed := fs.Uint64("seed", expspec.DefaultArtifactSeed, "random seed (default: the paper's arXiv id)")
	scale := fs.Float64("scale", expspec.DefaultArtifactScale, "experiment scale in (0, 1]; 1 = full paper-size runs")
	workers := fs.Int("workers", 0, "concurrent artifact generators; <= 0 means GOMAXPROCS")
	outdir := fs.String("outdir", "", "optional directory for per-artifact text files")
	list := fs.Bool("list", false, "list artifact IDs and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "reproduce:", err)
		return 1
	}

	if *list {
		for _, id := range figures.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}

	var doc expspec.Document
	if *specPath != "" {
		// -workers and -outdir are operational (scheduling and output
		// location, never identity), so they may accompany -spec;
		// everything else defines the artifacts and conflicts.
		if conflict := expspec.ConflictingFlag(fs, map[string]bool{"spec": true, "workers": true, "outdir": true, "list": true}); conflict != "" {
			return fatal(fmt.Errorf("-%s conflicts with -spec: the spec file defines the artifacts (only -workers and -outdir combine with it)", conflict))
		}
		var err error
		if doc, err = expspec.DecodeFile(*specPath); err != nil {
			return fatal(err)
		}
		if doc.Artifacts == nil {
			return fatal(fmt.Errorf("spec file %s has no artifacts section", *specPath))
		}
	} else {
		b := expspec.NewExperiment("")
		if *artifact != "all" {
			b.WithArtifacts(*artifact)
		} else {
			b.WithArtifacts()
		}
		b.WithArtifactOptions(*seed, *scale, *workers, *outdir)
		var err error
		if doc, err = b.Build(); err != nil {
			return fatal(err)
		}
	}
	plan, err := expspec.Compile(doc)
	if err != nil {
		return fatal(err)
	}
	if *specPath != "" {
		if *workers != 0 {
			plan.Artifacts.Workers = *workers
		}
		if *outdir != "" {
			plan.Artifacts.OutDir = *outdir
		}
	} else {
		// A document's zero seed/scale mean "use the defaults", but a
		// flag always carries an explicit value — keep -seed 0 the
		// literal seed 0 and let -scale 0 fail validation, exactly as
		// before the spec rewiring.
		plan.Artifacts.Seed = *seed
		plan.Artifacts.Scale = *scale
	}
	return execute(*plan.Artifacts, stdout, stderr)
}

// execute regenerates the planned artifacts.
func execute(plan expspec.Artifacts, stdout, stderr io.Writer) int {
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "reproduce:", err)
		return 1
	}
	cfg := figures.Config{Seed: plan.Seed, Scale: plan.Scale}
	if err := cfg.Validate(); err != nil {
		return fatal(err)
	}

	var results []figures.ArtifactResult
	if len(plan.IDs) == 1 && plan.IDs[0] == "all" {
		all, err := figures.GenerateEach(cfg, plan.Workers)
		if err != nil {
			return fatal(err)
		}
		results = all
	} else {
		// Explicit ID lists fan out like "all" does: results come back
		// in list order, so output stays deterministic at any worker
		// count.
		tables, errs := pool.Collect(len(plan.IDs), plan.Workers, func(i int) (figures.Table, error) {
			return figures.Generate(plan.IDs[i], cfg)
		})
		for i, id := range plan.IDs {
			results = append(results, figures.ArtifactResult{ID: id, Table: tables[i], Err: errs[i]})
		}
	}

	var failed []figures.ArtifactResult
	for _, r := range results {
		if r.Err == nil {
			if err := r.Table.Render(stdout); err != nil {
				r.Err = fmt.Errorf("rendering: %w", err)
			}
		}
		if r.Err == nil && plan.OutDir != "" {
			if err := writeArtifact(plan.OutDir, r.Table); err != nil {
				r.Err = fmt.Errorf("writing: %w", err)
			}
		}
		if r.Err != nil {
			failed = append(failed, r)
		}
	}

	if len(failed) > 0 {
		fmt.Fprintf(stderr, "reproduce: %d/%d artifacts failed:\n", len(failed), len(results))
		for _, r := range failed {
			fmt.Fprintf(stderr, "  %s: %v\n", r.ID, r.Err)
		}
		return 1
	}
	return 0
}

func writeArtifact(dir string, t figures.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", dir, err)
	}
	path := filepath.Join(dir, t.ID+".txt")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating %s: %w", path, err)
	}
	defer f.Close()
	if err := t.Render(f); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
