package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"cloudvar/internal/cloudmodel"
	"cloudvar/internal/fleet"
	"cloudvar/internal/simrand"
	"cloudvar/internal/trace"
	"cloudvar/internal/workload"
)

// The schema-3 upgrade (workload identity) must not move the keys or
// cell bytes of workload-less specs: stored runs from the previous
// schema stay resumable and comparable. These golden values were
// captured from the schema-2 toolchain immediately before the upgrade;
// if one of these assertions fails, a change silently re-keyed every
// existing store.
const (
	goldenSpecKey   = "767da289d3073f0b7ce468c51080e3df6d621f457b5e055c8ba69195849d55cc"
	goldenMatrixKey = "7737f6c3534b2fef769874d03994725a215132d78c96713160c60ad2fd47f4ad"
	goldenCellSHA   = "fba7bbffbe8539641e2265ef10639622453adac49675235bcc59737b2c75afb4"
	goldenCellLen   = 982
)

func goldenSpec(t *testing.T) fleet.CampaignSpec {
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
	}
}

func TestWorkloadLessKeysUnchangedBySchema3(t *testing.T) {
	spec := goldenSpec(t)
	if got := Identity(spec).Schema; got != 2 {
		t.Fatalf("workload-less identity schema = %d, want 2", got)
	}
	key, err := SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	if key != goldenSpecKey {
		t.Errorf("SpecKey = %s, want the schema-2 golden %s", key, goldenSpecKey)
	}
	mk, err := Identity(spec).MatrixKey()
	if err != nil {
		t.Fatal(err)
	}
	if mk != goldenMatrixKey {
		t.Errorf("MatrixKey = %s, want the schema-2 golden %s", mk, goldenMatrixKey)
	}
}

func TestWorkloadLessCellBytesUnchangedBySchema3(t *testing.T) {
	spec := goldenSpec(t)
	src := simrand.New(7).Substream("fleet/ec2/c5.xlarge/full-speed/rep0")
	s, err := cloudmodel.RunCampaign(spec.Profiles[0], trace.FullSpeed, spec.Config, src)
	if err != nil {
		t.Fatal(err)
	}
	s.Label = "ec2/c5.xlarge/full-speed/rep0"
	rec := CellRecord{
		Schema: cellSchema(nil), Label: s.Label,
		Cloud: "ec2", Instance: "c5.xlarge", Regime: "full-speed", Rep: 0,
		Series: s,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != goldenCellLen {
		t.Errorf("cell record is %d bytes, want %d", len(b), goldenCellLen)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != goldenCellSHA {
		t.Errorf("cell record sha = %s, want the schema-2 golden %s", got, goldenCellSHA)
	}
}

// A workload section must move both keys — runs differing only in
// traffic mix are different experiments — and stamp schema 3.
func TestWorkloadMovesKeys(t *testing.T) {
	spec := goldenSpec(t)
	spec.Workload = &workload.Spec{
		AggregateRPS: 10,
		Clients: []workload.Client{
			{ID: "chat", RateFraction: 1, SLOClass: "interactive", Arrival: workload.Arrival{Process: workload.Poisson}},
		},
	}
	if got := Identity(spec).Schema; got != 3 {
		t.Fatalf("workload identity schema = %d, want 3", got)
	}
	key, err := SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	if key == goldenSpecKey {
		t.Error("workload spec keys identically to the workload-less spec")
	}
	mk, err := Identity(spec).MatrixKey()
	if err != nil {
		t.Fatal(err)
	}
	if mk == goldenMatrixKey {
		t.Error("workload spec matrix-keys identically to the workload-less spec")
	}

	// Distinct traffic mixes key differently too.
	spec2 := spec
	wl := *spec.Workload
	wl.Clients = append([]workload.Client(nil), wl.Clients...)
	wl.Clients[0].Arrival = workload.Arrival{Process: workload.Gamma, CV: 2}
	spec2.Workload = &wl
	key2, err := SpecKey(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if key2 == key {
		t.Error("different arrival processes key identically")
	}
}
