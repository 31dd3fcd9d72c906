// Command drift renders the longitudinal drift report over stored
// campaign runs: the paper's "do conclusions replicate?" question
// made executable. Given two or more runs of the same campaign matrix
// (written by cloudbench -store), it checks the F5.2 fingerprint
// gate, compares per-group medians with nonparametric CIs, and scores
// per-cell conclusion agreement with Cohen's kappa.
//
// Usage:
//
//	drift -spec FILE                  # store + runs + gates from an
//	                                  # experiment-spec document
//	drift -store DIR                  # compare every run in the store
//	drift -store DIR -runs day1,day8  # compare named runs, baseline first
//	drift -store DIR -list            # list stored runs
//	drift -store DIR -show-spec RUN   # reprint the canonical experiment
//	                                  # spec a stored run was launched from
//
// -spec reads the document's store and drift sections (see
// examples/*/experiment.json); the other flags are the legacy path and
// synthesize the same document internally. -fail-on-drift (or
// "failOnDrift" in the spec) exits 2 when any drift signal fires, so a
// scheduled campaign can gate on it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"cloudvar/internal/expspec"
	"cloudvar/internal/longitudinal"
	"cloudvar/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drift", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "experiment-spec file with store + drift sections; replaces the flags below")
	storeDir := fs.String("store", "", "results store directory (required without -spec)")
	runList := fs.String("runs", "", "comma-separated run IDs, baseline first; empty means every run in the store")
	list := fs.Bool("list", false, "list stored runs and exit")
	showSpec := fs.String("show-spec", "", "reprint the canonical experiment spec of this stored run and exit")
	tolerance := fs.Float64("tolerance", 0.15, "relative tolerance for the fingerprint gate")
	confidence := fs.Float64("confidence", 0.95, "confidence level for per-group median CIs")
	errorBound := fs.Float64("error-bound", 0.05, "relative error bound echoed into per-group results")
	failOnDrift := fs.Bool("fail-on-drift", false, "exit 2 when a drift signal fires")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "drift:", err)
		return 1
	}

	// Resolve the comparison's parameters: either from a spec
	// document's store/drift sections, or by synthesizing the same
	// document from the legacy flags — one validation path for both.
	var doc expspec.Document
	if *specPath != "" {
		if conflict := expspec.ConflictingFlag(fs, map[string]bool{"spec": true, "list": true, "show-spec": true}); conflict != "" {
			return fatal(fmt.Errorf("-%s conflicts with -spec: the spec file defines the comparison", conflict))
		}
		var err error
		if doc, err = expspec.DecodeFile(*specPath); err != nil {
			return fatal(err)
		}
		if doc.Store == nil {
			return fatal(fmt.Errorf("spec file %s has no store section (the runs live in a store)", *specPath))
		}
		// -list and -show-spec only need the store; the comparison
		// itself needs a drift section.
		if doc.Drift == nil && !*list && *showSpec == "" {
			return fatal(fmt.Errorf("spec file %s has no drift section for a comparison (use -list or -show-spec to inspect the store)", *specPath))
		}
		if doc.Drift == nil {
			doc.Drift = &expspec.Drift{}
		}
	} else {
		if *storeDir == "" {
			return fatal(fmt.Errorf("-store is required (or give -spec)"))
		}
		b := expspec.NewExperiment("").
			WithStore(*storeDir, "").
			WithDrift(expspec.SplitList(*runList)...).
			WithDriftOptions(*tolerance, *confidence, *errorBound, *failOnDrift)
		var err error
		if doc, err = b.Build(); err != nil {
			return fatal(err)
		}
	}
	plan, err := expspec.Compile(doc)
	if err != nil {
		return fatal(err)
	}

	st, err := store.Open(plan.Store.Dir)
	if err != nil {
		return fatal(err)
	}

	if *list {
		return listRuns(st, stdout, stderr)
	}
	if *showSpec != "" {
		return printStoredSpec(st, *showSpec, stdout, stderr)
	}

	ids := plan.Drift.Runs
	if len(ids) == 0 {
		manifests, err := st.ListRuns()
		if err != nil {
			return fatal(err)
		}
		for _, m := range manifests {
			ids = append(ids, m.RunID)
		}
	}
	if len(ids) < 2 {
		return fatal(fmt.Errorf("need >= 2 runs to compare, have %d (run cloudbench -store first, or see -list)", len(ids)))
	}

	runs, err := longitudinal.Load(st, ids...)
	if err != nil {
		return fatal(err)
	}
	report, err := longitudinal.Analyze(runs, longitudinal.Options{
		Confidence:           plan.Drift.Confidence,
		ErrorBound:           plan.Drift.ErrorBound,
		FingerprintTolerance: plan.Drift.Tolerance,
	})
	if err != nil {
		return fatal(err)
	}
	if err := report.WriteMarkdown(stdout); err != nil {
		return fatal(err)
	}
	if plan.Drift.FailOnDrift && report.Drifted() {
		fmt.Fprintln(stderr, "drift: drift detected")
		return 2
	}
	return 0
}

// printStoredSpec reprints the canonical experiment-spec document a
// stored run was launched from, verifying it still matches the
// recorded content address.
func printStoredSpec(st *store.Store, runID string, stdout, stderr io.Writer) int {
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "drift:", err)
		return 1
	}
	m, err := st.Manifest(runID)
	if err != nil {
		return fatal(err)
	}
	if len(m.ExperimentSpec) == 0 {
		return fatal(fmt.Errorf("run %q predates experiment-spec documents: its manifest records no spec (spec key %.12s)", runID, m.SpecKey))
	}
	// The manifest embeds the document as raw JSON whose whitespace
	// json re-indented; decode and re-encode so what we print is the
	// canonical encoding, byte-for-byte what a spec file would hold.
	doc, err := expspec.Decode(m.ExperimentSpec)
	if err != nil {
		return fatal(fmt.Errorf("run %q: stored spec does not decode: %w", runID, err))
	}
	hash, err := doc.Hash()
	if err != nil {
		return fatal(fmt.Errorf("run %q: stored spec does not validate: %w", runID, err))
	}
	if m.ExperimentSpecHash != "" && hash != m.ExperimentSpecHash {
		return fatal(fmt.Errorf("run %q: stored spec hashes to %.12s but the manifest records %.12s — manifest corrupted?",
			runID, hash, m.ExperimentSpecHash))
	}
	canon, err := doc.Canonical()
	if err != nil {
		return fatal(err)
	}
	b, err := canon.Encode()
	if err != nil {
		return fatal(err)
	}
	if _, err := stdout.Write(b); err != nil {
		return fatal(err)
	}
	return 0
}

func listRuns(st *store.Store, stdout, stderr io.Writer) int {
	manifests, err := st.ListRuns()
	if len(manifests) == 0 && err != nil {
		fmt.Fprintln(stderr, "drift:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%-20s %-14s %-14s %-14s %6s %6s %-8s %6s %-16s %s\n", "run", "matrix", "spec", "expspec", "seed", "cells", "enc", "schema", "scenario", "workload")
	var read store.BandwidthScratch
	for _, m := range manifests {
		// Count through the drift read: it checks every frame as Cells
		// does but decodes only what drift compares.
		cells := 0
		cellsErr := st.BandwidthCells(m.RunID, m.Encoding, &read, func(store.BandwidthCell) { cells++ })
		n := fmt.Sprintf("%d", cells)
		if cellsErr != nil {
			n = "ERR"
		}
		expHash := "-"
		if m.ExperimentSpecHash != "" {
			expHash = m.ExperimentSpecHash
		}
		enc := "jsonl"
		if m.Encoding != "" {
			enc = m.Encoding
		}
		// A shard-stamped run is a fragment of a distributed campaign
		// awaiting its merge; flag it so nobody mistakes it for a full
		// run.
		if m.Shard != nil {
			enc += fmt.Sprintf("@%d/%d", m.Shard.Index, m.Shard.Count)
		}
		wl := "none"
		if m.Spec.Workload != nil {
			wl = m.Spec.Workload.Summary()
		}
		fmt.Fprintf(stdout, "%-20s %-14.12s %-14.12s %-14.12s %6d %6s %-8s %6d %-16s %s\n",
			m.RunID, m.MatrixKey, m.SpecKey, expHash, m.Spec.Seed, n, enc, m.Schema, m.Spec.Scenario, wl)
	}
	if err != nil {
		fmt.Fprintln(stderr, "drift:", err)
		return 1
	}
	return 0
}
