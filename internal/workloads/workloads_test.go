package workloads

import (
	"reflect"
	"testing"

	"cloudvar/internal/simrand"
	"cloudvar/internal/spark"
)

func TestHiBenchCatalog(t *testing.T) {
	apps := HiBench()
	if len(apps) != 5 {
		t.Fatalf("HiBench has %d apps, want 5", len(apps))
	}
	abbrevs := map[string]bool{}
	for _, a := range apps {
		abbrevs[a.Abbrev] = true
		if err := a.Job.Validate(); err != nil {
			t.Errorf("%s: invalid job: %v", a.Name, err)
		}
		if a.Suite != "hibench" {
			t.Errorf("%s: suite %q", a.Name, a.Suite)
		}
		if a.NetworkIntensity < 0 || a.NetworkIntensity > 1 {
			t.Errorf("%s: intensity %g out of range", a.Name, a.NetworkIntensity)
		}
	}
	for _, want := range []string{"TS", "WC", "S", "BS", "KM"} {
		if !abbrevs[want] {
			t.Errorf("missing app %s", want)
		}
	}
	// The paper's ordering: TS and WC are the network-heavy pair.
	ts, _ := HiBenchByAbbrev("TS")
	wc, _ := HiBenchByAbbrev("WC")
	km, _ := HiBenchByAbbrev("KM")
	if ts.NetworkIntensity <= km.NetworkIntensity || wc.NetworkIntensity <= km.NetworkIntensity {
		t.Error("TS/WC should rank above KM in network intensity")
	}
	if _, err := HiBenchByAbbrev("XX"); err == nil {
		t.Error("unknown abbrev should error")
	}
}

func TestTerasortVolumeMatchesFigure15(t *testing.T) {
	// Figure 15: one Terasort run moves ~200 Gbit per node, so five
	// consecutive runs exhaust a 1000 Gbit budget.
	ts, err := HiBenchByAbbrev("TS")
	if err != nil {
		t.Fatal(err)
	}
	perNode := ts.Job.TotalShuffleGbit() / Table4Nodes
	if perNode < 150 || perNode > 250 {
		t.Errorf("Terasort per-node shuffle %g Gbit, want ~200", perNode)
	}
}

func TestTPCDSCatalog(t *testing.T) {
	apps := TPCDS()
	if len(apps) != 21 {
		t.Fatalf("TPC-DS has %d queries, want 21", len(apps))
	}
	wantQueries := []int{3, 7, 19, 27, 34, 42, 43, 46, 52, 53, 55, 59, 63, 65, 68, 70, 73, 79, 82, 89, 98}
	got := TPCDSQueryNumbers()
	if len(got) != len(wantQueries) {
		t.Fatalf("query numbers: %v", got)
	}
	for i, q := range wantQueries {
		if got[i] != q {
			t.Errorf("query set mismatch at %d: %d != %d", i, got[i], q)
		}
	}
	for _, a := range apps {
		if err := a.Job.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
	// Q65 must be far more network-intensive than Q82 (Figure 19).
	q65, err := TPCDSQuery(65)
	if err != nil {
		t.Fatal(err)
	}
	q82, err := TPCDSQuery(82)
	if err != nil {
		t.Fatal(err)
	}
	if q65.NetworkIntensity < 2*q82.NetworkIntensity {
		t.Errorf("Q65 intensity %g not >> Q82 %g", q65.NetworkIntensity, q82.NetworkIntensity)
	}
	if _, err := TPCDSQuery(1); err == nil {
		t.Error("query outside the set should error")
	}
}

func TestByName(t *testing.T) {
	for _, want := range AllApps() {
		got, err := ByName(want.Name)
		if err != nil {
			t.Errorf("ByName(%q): %v", want.Name, err)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("ByName(%q) = %+v, want %+v", want.Name, got, want)
		}
	}
	for _, name := range []string{"q999", "q065", "q+65", "Q65", "q", "65", "TS", "", "kmeans-emu"} {
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName(%q) should error", name)
		}
	}
	if len(AllApps()) != 26 {
		t.Errorf("AllApps = %d, want 26", len(AllApps()))
	}
}

func TestTable4ClusterValidation(t *testing.T) {
	src := simrand.New(1)
	if _, err := Table4Cluster(-1, src); err == nil {
		t.Error("negative budget should error")
	}
	if _, err := Table4Cluster(1e9, src); err == nil {
		t.Error("budget above capacity should error")
	}
	c, err := Table4Cluster(100, src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Nodes() != Table4Nodes {
		t.Errorf("cluster nodes = %d", c.Nodes())
	}
	for i, tok := range c.NodeTokens() {
		if tok != 100 {
			t.Errorf("node %d tokens = %g, want 100", i, tok)
		}
	}
}

func runOn(t *testing.T, app App, budget float64, seed uint64) float64 {
	t.Helper()
	c, err := Table4Cluster(budget, simrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunJob(app.Job, spark.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Runtime()
}

// TestFigure16Calibration validates the HiBench budget sensitivity the
// paper reports: TS and WC suffer a 25-50% runtime impact between the
// largest and smallest budget, while KM barely reacts.
func TestFigure16Calibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run")
	}
	impact := func(abbrev string) float64 {
		app, err := HiBenchByAbbrev(abbrev)
		if err != nil {
			t.Fatal(err)
		}
		full := runOn(t, app, 5000, 42)
		starved := runOn(t, app, 10, 42)
		return (starved - full) / starved
	}
	ts := impact("TS")
	wc := impact("WC")
	km := impact("KM")
	t.Logf("budget impact: TS=%.2f WC=%.2f KM=%.2f", ts, wc, km)
	if ts < 0.20 || ts > 0.60 {
		t.Errorf("TS impact %.2f outside the paper's 25-50%% band", ts)
	}
	if wc < 0.20 || wc > 0.60 {
		t.Errorf("WC impact %.2f outside the paper's 25-50%% band", wc)
	}
	if km > 0.15 {
		t.Errorf("KM impact %.2f should be small", km)
	}
	if km >= ts || km >= wc {
		t.Error("network-light KM should react less than TS/WC")
	}
}

// TestFigure17Calibration validates the TPC-DS contrast: Q65 slows
// substantially on a starved budget, Q82 is nearly agnostic, and the
// majority of queries are budget-sensitive.
func TestFigure17Calibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run")
	}
	slowdown := func(q int) float64 {
		app, err := TPCDSQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		full := runOn(t, app, 5000, 7)
		starved := runOn(t, app, 10, 7)
		return starved / full
	}
	s65 := slowdown(65)
	s82 := slowdown(82)
	t.Logf("slowdowns: q65=%.2f q82=%.2f", s65, s82)
	if s65 < 1.8 {
		t.Errorf("Q65 slowdown %.2f too small (budget-sensitive query)", s65)
	}
	if s82 > 1.15 {
		t.Errorf("Q82 slowdown %.2f too large (budget-agnostic query)", s82)
	}

	sensitive := 0
	for _, q := range TPCDSQueryNumbers() {
		if slowdown(q) > 1.25 {
			sensitive++
		}
	}
	frac := float64(sensitive) / float64(len(TPCDSQueryNumbers()))
	t.Logf("budget-sensitive queries: %d/%d", sensitive, len(TPCDSQueryNumbers()))
	// Paper: ~80% of queries produce poor median estimates under
	// depleting budgets.
	if frac < 0.6 {
		t.Errorf("only %.0f%% of queries budget-sensitive; paper found ~80%%", frac*100)
	}
}

// TestQueryRuntimesInFigureRange checks baselines are in Figure 17b's
// 20-175 s band at full budget.
func TestQueryRuntimesInFigureRange(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run")
	}
	for _, q := range []int{3, 55, 65, 82, 98} {
		app, err := TPCDSQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		rt := runOn(t, app, 5000, 3)
		if rt < 10 || rt > 220 {
			t.Errorf("q%d baseline runtime %.1f s outside Figure 17's band", q, rt)
		}
	}
}

func TestKMeansScaled(t *testing.T) {
	app := KMeansScaled(8, 2)
	if err := app.Job.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(app.Job.Stages) != 9 { // load + 8 iterations
		t.Errorf("scaled kmeans has %d stages", len(app.Job.Stages))
	}
}
