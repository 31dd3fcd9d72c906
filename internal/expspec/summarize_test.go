package expspec_test

// Spec-level coverage for the bounded-memory additions: the campaign
// summarize: mode (identity) and the store encoding: selector
// (operational).

import (
	"strings"
	"testing"

	"cloudvar/internal/expspec"
	"cloudvar/internal/fleet"
)

func TestSummarizeCanonicalAndHash(t *testing.T) {
	base := minimal()
	baseHash, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}

	// The default's explicit spelling canonicalizes away and keeps the
	// hash — a document that says summarize: exact means the same
	// experiment as one that omits it.
	exact := minimal()
	exact.Campaign.Summarize = "exact"
	canon, err := exact.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if canon.Campaign.Summarize != "" {
		t.Errorf("canonical summarize = %q, want omitted", canon.Campaign.Summarize)
	}
	h, err := exact.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h != baseHash {
		t.Error("summarize: exact moved the hash — the default spelling is identity-visible")
	}

	// Sketch mode is a different experiment: the hash must move.
	sk := minimal()
	sk.Campaign.Summarize = "sketch"
	h, err = sk.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h == baseHash {
		t.Error("summarize: sketch did not move the hash")
	}

	bad := minimal()
	bad.Campaign.Summarize = "lossy"
	if _, err := bad.Canonical(); err == nil || !strings.Contains(err.Error(), "campaign.summarize") {
		t.Errorf("bad summarize error = %v, want campaign.summarize path", err)
	}
}

func TestStoreEncodingCanonicalAndHash(t *testing.T) {
	withEncoding := func(enc string) expspec.Document {
		d := minimal()
		d.Store = &expspec.Store{Dir: "results", RunID: "day1", Encoding: enc}
		return d
	}
	canon, err := withEncoding("jsonl").Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if canon.Store.Encoding != "" {
		t.Errorf("canonical encoding = %q, want omitted (jsonl is the default)", canon.Store.Encoding)
	}

	// The encoding is operational: columnar and JSONL documents of the
	// same experiment hash identically.
	h1, err := withEncoding("").Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := withEncoding("columnar").Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("store.encoding moved the hash — storage format leaked into identity")
	}

	if _, err := withEncoding("parquet").Canonical(); err == nil || !strings.Contains(err.Error(), "store.encoding") {
		t.Errorf("bad encoding error = %v, want store.encoding path", err)
	}
}

func TestCompileCarriesSummarizeAndEncoding(t *testing.T) {
	doc, err := expspec.NewExperiment("sketchy").
		WithProfile("ec2", "").
		WithRegimes("full-speed").
		WithDuration(0.01).
		WithSeed(7).
		WithStore("results", "day1").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	doc.Campaign.Summarize = "sketch"
	doc.Store.Encoding = "columnar"
	plan, err := expspec.Compile(doc)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Campaign.Spec.Summarize != fleet.SummarizeSketch {
		t.Errorf("compiled Summarize = %q, want sketch", plan.Campaign.Spec.Summarize)
	}
	if plan.Store.Encoding != "columnar" {
		t.Errorf("compiled store encoding = %q, want columnar", plan.Store.Encoding)
	}
}

func TestDecodeSummarizeAndEncoding(t *testing.T) {
	doc, err := expspec.Decode([]byte(`{
  "schemaVersion": 2,
  "campaign": {
    "profiles": [{"cloud": "ec2"}],
    "hours": 0.01,
    "seed": 7,
    "summarize": "sketch"
  },
  "store": {"dir": "results", "runId": "day1", "encoding": "columnar"}
}`))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Campaign.Summarize != "sketch" {
		t.Errorf("decoded summarize = %q, want sketch", doc.Campaign.Summarize)
	}
	if doc.Store.Encoding != "columnar" {
		t.Errorf("decoded encoding = %q, want columnar", doc.Store.Encoding)
	}
	// The round trip stays canonical: decode → canonical → encode →
	// decode reproduces the document.
	canon, err := doc.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := canon.Encode()
	if err != nil {
		t.Fatal(err)
	}
	again, err := expspec.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if again.Campaign.Summarize != "sketch" || again.Store.Encoding != "columnar" {
		t.Errorf("round trip lost fields: summarize=%q encoding=%q", again.Campaign.Summarize, again.Store.Encoding)
	}
}
