package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudvar/internal/cloudmodel"
	"cloudvar/internal/expspec"
	"cloudvar/internal/fleet"
	"cloudvar/internal/scenario"
	"cloudvar/internal/store"
	"cloudvar/internal/testutil"
	"cloudvar/internal/trace"
)

// seedStore persists two comparable runs (same matrix, different
// seeds) into a fresh store and returns its directory.
func seedStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	persistRun(t, st, "day1", 1, store.EncodingJSONL)
	persistRun(t, st, "day8", 8, store.EncodingJSONL)
	return dir
}

// persistRun runs the two-cell EC2 campaign at seed into run runID of
// st, in cell encoding enc.
func persistRun(t *testing.T, st *store.Store, runID string, seed uint64, enc string) {
	t.Helper()
	ec2, err := cloudmodel.EC2Profile("c5.xlarge")
	if err != nil {
		t.Fatal(err)
	}
	spec := fleet.CampaignSpec{
		Profiles:    []cloudmodel.Profile{ec2},
		Regimes:     []trace.Regime{trace.FullSpeed},
		Repetitions: 2,
		Config:      cloudmodel.DefaultCampaignConfig(60),
		Seed:        seed,
	}
	run, err := st.CreateWithMeta(runID, spec, store.RunMeta{Encoding: enc})
	if err != nil {
		t.Fatal(err)
	}
	spec.Sink = run
	res, err := fleet.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	run.Close()
}

func TestRunReport(t *testing.T) {
	dir := seedStore(t)
	var out, errOut bytes.Buffer
	if code := run([]string{"-store", dir}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"# Longitudinal drift report", "baseline day1", "## Per-group medians", "**Verdict:**"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}

	// Explicit run list, reversed baseline.
	out.Reset()
	if code := run([]string{"-store", dir, "-runs", "day8,day1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "baseline day8") {
		t.Error("-runs order should pick the baseline")
	}
}

func TestRunList(t *testing.T) {
	dir := seedStore(t)
	// A columnar run whose last frame's payload no longer matches its
	// CRC: listed, with ERR for its cell count.
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	persistRun(t, st, "day9", 9, store.EncodingColumnar)
	cells := filepath.Join(dir, "runs", "day9", "cells.col")
	b, err := os.ReadFile(cells)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(cells, b, 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errOut bytes.Buffer
	if code := run([]string{"-store", dir, "-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"day1", "day8"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list missing %q:\n%s", want, out.String())
		}
	}
	// The listing surfaces each run's store encoding and manifest
	// schema version.
	for _, want := range []string{"enc", "schema", "jsonl"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list missing the %q column:\n%s", want, out.String())
		}
	}
	// Readable runs show their cell count, the unreadable one ERR.
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		fields := strings.Fields(line)
		if len(fields) < 6 {
			t.Fatalf("short list line %q", line)
		}
		want := "2"
		if fields[0] == "day9" {
			want = "ERR"
		}
		if fields[5] != want {
			t.Errorf("run %s lists %s cells, want %s:\n%s", fields[0], fields[5], want, out.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	dir := seedStore(t)
	cases := [][]string{
		{},                                  // no -store
		{"-store", dir, "-runs", "day1"},    // one run is not longitudinal
		{"-store", dir, "-runs", "day1,xx"}, // unknown run
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

// TestRunFromSpec drives the comparison from an experiment-spec
// document's store + drift sections.
func TestRunFromSpec(t *testing.T) {
	dir := seedStore(t)
	specFile := filepath.Join(t.TempDir(), "experiment.json")
	spec := `{
  "schemaVersion": 1,
  "store": {"dir": ` + testutil.JSONString(t, dir) + `},
  "drift": {"runs": ["day8", "day1"], "tolerance": 0.2}
}`
	if err := os.WriteFile(specFile, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-spec", specFile}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "baseline day8") {
		t.Errorf("spec drift.runs order should pick the baseline:\n%s", out.String())
	}

	// Conflicting flags are rejected.
	if code := run([]string{"-spec", specFile, "-runs", "day1,day8"}, &out, &errOut); code != 1 {
		t.Fatalf("conflicting -runs exited %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "-runs conflicts with -spec") {
		t.Errorf("stderr should name the conflicting flag: %s", errOut.String())
	}

	// A spec without a drift section still supports the store-only
	// subcommands (-list), just not the comparison.
	storeOnly := filepath.Join(t.TempDir(), "store.json")
	noDrift := `{"schemaVersion": 1, "store": {"dir": ` + testutil.JSONString(t, dir) + `}}`
	if err := os.WriteFile(storeOnly, []byte(noDrift), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-spec", storeOnly, "-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-spec -list without a drift section exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "day1") {
		t.Errorf("-spec -list output:\n%s", out.String())
	}
	if code := run([]string{"-spec", storeOnly}, &out, &errOut); code != 1 {
		t.Fatalf("comparison without a drift section exited %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "no drift section") {
		t.Errorf("stderr: %s", errOut.String())
	}
}

// TestShowSpec is the acceptance path: a run stored with a spec
// document reprints exactly the canonical spec, and the reprint
// re-decodes to the same hash.
func TestShowSpec(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := expspec.NewExperiment("show-spec").
		WithProfile("ec2", "c5.xlarge").
		WithRegimes("full-speed").
		WithDuration(0.01).
		WithSeed(4).
		WithStore(dir, "day1").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := expspec.Compile(doc)
	if err != nil {
		t.Fatal(err)
	}
	run1, err := st.CreateWithMeta("day1", plan.Campaign.Spec, store.RunMeta{
		ExperimentSpec:     plan.Bytes,
		ExperimentSpecHash: plan.Hash,
	})
	if err != nil {
		t.Fatal(err)
	}
	run1.Close()

	var out, errOut bytes.Buffer
	if code := run([]string{"-store", dir, "-show-spec", "day1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if out.String() != string(plan.Bytes) {
		t.Fatalf("-show-spec did not reprint the canonical spec:\n%s\nvs stored\n%s", out.String(), plan.Bytes)
	}
	reprinted, err := expspec.Decode(out.Bytes())
	if err != nil {
		t.Fatalf("reprint does not re-decode: %v", err)
	}
	hash, err := reprinted.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hash != plan.Hash {
		t.Fatalf("reprint hashes to %.12s, stored spec to %.12s", hash, plan.Hash)
	}

	// A run persisted without a spec document says so.
	legacy, err := st.CreateWithMeta("legacy", plan.Campaign.Spec, store.RunMeta{})
	if err != nil {
		t.Fatal(err)
	}
	legacy.Close()
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-store", dir, "-show-spec", "legacy"}, &out, &errOut); code != 1 {
		t.Fatalf("-show-spec on a legacy run exited %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "predates experiment-spec documents") {
		t.Errorf("stderr: %s", errOut.String())
	}
}

// TestRunRefusesMismatchedScenarios seeds one quiet and one
// noisy-neighbor run and checks drift refuses the comparison, naming
// the scenario rather than only the opaque matrix hash.
func TestRunRefusesMismatchedScenarios(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ec2, err := cloudmodel.EC2Profile("c5.xlarge")
	if err != nil {
		t.Fatal(err)
	}
	base := fleet.CampaignSpec{
		Profiles:    []cloudmodel.Profile{ec2},
		Regimes:     []trace.Regime{trace.FullSpeed},
		Repetitions: 2,
		Config:      cloudmodel.DefaultCampaignConfig(60),
		Seed:        1,
	}
	quiet := base
	noisy, err := func() (fleet.CampaignSpec, error) {
		sc, err := scenario.ByName("noisy-neighbor")
		if err != nil {
			return base, err
		}
		s := base
		s.Seed = 2
		return sc.Expand(s)
	}()
	if err != nil {
		t.Fatal(err)
	}
	for id, spec := range map[string]fleet.CampaignSpec{"quiet": quiet, "noisy": noisy} {
		run, err := st.CreateWithMeta(id, spec, store.RunMeta{})
		if err != nil {
			t.Fatal(err)
		}
		spec.Sink = run
		res, err := fleet.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		run.Close()
	}

	var out, errOut bytes.Buffer
	if code := run([]string{"-store", dir, "-runs", "noisy,quiet"}, &out, &errOut); code != 1 {
		t.Fatalf("mismatched scenarios exited %d, want 1", code)
	}
	for _, want := range []string{"scenario", "noisy-neighbor"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("stderr does not name the %s: %s", want, errOut.String())
		}
	}

	// -list shows the scenario column for both runs.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-store", dir, "-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "noisy-neighbor(") || !strings.Contains(out.String(), "none") {
		t.Errorf("-list missing scenario identities:\n%s", out.String())
	}
}
