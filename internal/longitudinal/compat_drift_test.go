package longitudinal_test

// Cross-era and cross-encoding determinism. The committed PR 6 era
// JSONL store (internal/store/testdata/goldenstore) must stay
// drift-comparable against a columnar run of the same spec, and the
// resume/worker-count byte-identity properties must hold with sketch
// summarization and columnar encoding switched on — the bounded-memory
// path earns the same determinism proof as the exact one.

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"cloudvar/internal/cloudmodel"
	"cloudvar/internal/fleet"
	"cloudvar/internal/longitudinal"
	"cloudvar/internal/store"
	"cloudvar/internal/testutil"
	"cloudvar/internal/trace"
	"cloudvar/internal/workload"
)

// goldenStoreCopy copies the committed golden store into a scratch
// directory and opens it — resume repair and new runs must never touch
// the committed fixture.
func goldenStoreCopy(t *testing.T) *store.Store {
	t.Helper()
	src := filepath.Join("..", "store", "testdata", "goldenstore")
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// goldenFixtureSpec mirrors the spec the golden store was generated
// from (store/compat_test.go's goldenSpec, one worker).
func goldenFixtureSpec(t *testing.T) fleet.CampaignSpec {
	t.Helper()
	ec2, err := cloudmodel.EC2Profile("c5.xlarge")
	if err != nil {
		t.Fatal(err)
	}
	return fleet.CampaignSpec{
		Profiles:    []cloudmodel.Profile{ec2},
		Regimes:     []trace.Regime{trace.FullSpeed},
		Repetitions: 2,
		Config:      cloudmodel.DefaultCampaignConfig(60),
		Seed:        7,
		Workers:     1,
	}
}

// TestGoldenStoreDriftComparable: the drift analyser accepts the
// committed JSONL run and a freshly-written columnar run of the same
// spec as the same experiment — equal matrices, zero drift.
func TestGoldenStoreDriftComparable(t *testing.T) {
	st := goldenStoreCopy(t)

	spec := goldenFixtureSpec(t)
	twin, err := st.CreateWithMeta("twin", spec, store.RunMeta{Encoding: store.EncodingColumnar})
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	spec.Sink = twin
	res, err := fleet.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}

	runs, err := longitudinal.Load(st, "pr6", "twin")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := longitudinal.Analyze(runs, longitudinal.Options{})
	if err != nil {
		t.Fatalf("golden JSONL run and columnar twin are not comparable: %v", err)
	}
	if rep.Drifted() {
		t.Fatal("identical data stored under two encodings reported as drifted")
	}
	for _, k := range rep.Kappa {
		if k.Err == nil && k.Kappa != 1 {
			t.Fatalf("kappa = %v across encodings, want 1", k.Kappa)
		}
	}
}

// TestDriftReportSameAcrossEncodings: Load reads a columnar run's
// frames for their header, bandwidth column and workload alone, and a
// JSONL run whole. One traffic campaign stored both ways must render
// byte-identical drift reports against one baseline: bandwidth groups,
// per-class p99 tails and kappa alike.
func TestDriftReportSameAcrossEncodings(t *testing.T) {
	st := testutil.TempStore(t)
	persist := func(runID string, seed uint64, enc string) {
		spec := testSpec(t, seed, 2)
		spec.Config = cloudmodel.DefaultCampaignConfig(600)
		spec.Workload = &workload.Spec{AggregateRPS: 2, RequestKB: 8192, Clients: []workload.Client{
			{ID: "web", RateFraction: 0.7, SLOClass: "interactive", Arrival: workload.Arrival{Process: workload.Poisson}},
			{ID: "etl", RateFraction: 0.3, SLOClass: "batch", Arrival: workload.Arrival{Process: workload.Gamma, CV: 2}},
		}}
		run, err := st.CreateWithMeta(runID, spec, store.RunMeta{Encoding: enc})
		if err != nil {
			t.Fatal(err)
		}
		runWith(t, run, spec)
		if err := run.Close(); err != nil {
			t.Fatal(err)
		}
	}
	persist("base", 11, store.EncodingColumnar)
	persist("alpha", 12, store.EncodingJSONL)
	persist("bravo", 12, store.EncodingColumnar)
	report := func(runID string) []byte {
		runs, err := longitudinal.Load(st, "base", runID)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := longitudinal.Analyze(runs, longitudinal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteMarkdown(&buf); err != nil {
			t.Fatal(err)
		}
		return bytes.ReplaceAll(buf.Bytes(), []byte(runID), []byte("RUN"))
	}
	jsonl := report("alpha")
	if !bytes.Contains(jsonl, []byte("## Per-SLO-class tail latency")) {
		t.Fatalf("report has no per-class section:\n%s", jsonl)
	}
	if columnar := report("bravo"); !bytes.Equal(jsonl, columnar) {
		t.Fatalf("drift report differs by encoding:\n%s\n---\n%s", jsonl, columnar)
	}
}

// sketchColumnarSpec is testSpec with the bounded-memory summarizer
// switched on; runs of it are stored columnar by the helpers below.
func sketchColumnarSpec(t *testing.T, seed uint64, workers int) fleet.CampaignSpec {
	t.Helper()
	spec := testSpec(t, seed, workers)
	spec.Summarize = fleet.SummarizeSketch
	return spec
}

func runPersistedColumnar(t *testing.T, st *store.Store, runID string, spec fleet.CampaignSpec) (fleet.CampaignResult, int) {
	t.Helper()
	run, err := st.CreateWithMeta(runID, spec, store.RunMeta{Encoding: store.EncodingColumnar})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	return runWith(t, run, spec)
}

// TestResumeByteIdenticalSketchColumnar re-proves the resume and
// worker-count determinism properties with sketch summarization and
// columnar encoding enabled: the sketch summaries (recomputed from the
// restored series on resume) and the columnar round-trip must both be
// byte-invisible in testutil.EncodeResult.
func TestResumeByteIdenticalSketchColumnar(t *testing.T) {
	encoded := map[int]string{}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			st := testutil.TempStore(t)

			spec := sketchColumnarSpec(t, 7, workers)
			full, _ := runPersistedColumnar(t, st, "alpha", spec)
			encoded[workers] = testutil.EncodeResult(t, full)

			// The sketch mode must be part of the stored identity:
			// schema 4, summarize stamped.
			m, err := st.Manifest("alpha")
			if err != nil {
				t.Fatal(err)
			}
			if m.Spec.Schema != 4 || m.Spec.Summarize != "sketch" {
				t.Fatalf("manifest identity = schema %d summarize %q, want 4/sketch", m.Spec.Schema, m.Spec.Summarize)
			}

			// Interrupt halfway, resume: only the missing cells run,
			// and the result is byte-identical — including the sketch
			// summaries, which the restore path recomputes.
			interrupted, err := st.CreateWithMeta("bravo", spec, store.RunMeta{Encoding: store.EncodingColumnar})
			if err != nil {
				t.Fatal(err)
			}
			half := len(full.Cells) / 2
			for _, c := range full.Cells[:half] {
				if err := interrupted.Put(c); err != nil {
					t.Fatal(err)
				}
			}
			resumed, executed := runWith(t, interrupted, spec)
			interrupted.Close()
			if want := len(full.Cells) - half; executed != want {
				t.Fatalf("resume executed %d cells, want exactly the %d missing ones", executed, want)
			}
			if testutil.EncodeResult(t, resumed) != encoded[workers] {
				t.Fatal("sketch+columnar resume is not byte-identical to the uninterrupted run")
			}
		})
	}
	if encoded[1] != encoded[8] {
		t.Fatal("sketch+columnar results differ between workers=1 and workers=8")
	}
}
