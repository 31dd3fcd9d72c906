// Benchmarks regenerating every table and figure in the paper's
// evaluation, plus ablations that compare a production model against
// its simpler alternative, and micro-benchmarks of the hot paths.
//
// Each BenchmarkTableN / BenchmarkFigureN runs the corresponding
// artifact generator at a reduced scale so the full suite stays
// tractable; run cmd/reproduce -scale 1 for the full-size artifacts.
package cloudvar_test

import (
	"math"
	"testing"

	cloudvar "cloudvar"
	"cloudvar/internal/figures"
	"cloudvar/internal/netem"
	"cloudvar/internal/simrand"
	"cloudvar/internal/stats"
	"cloudvar/internal/tokenbucket"
)

// benchArtifact runs one figure generator per iteration.
func benchArtifact(b *testing.B, id string, scale float64) {
	b.Helper()
	cfg := figures.Config{Seed: 42, Scale: scale}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := figures.Generate(id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section 2: survey and low-repetition emulation ---

func BenchmarkTable1Survey(b *testing.B)        { benchArtifact(b, "table1", 1) }
func BenchmarkTable2SurveyFunnel(b *testing.B)  { benchArtifact(b, "table2", 1) }
func BenchmarkFigure1aReporting(b *testing.B)   { benchArtifact(b, "figure1a", 1) }
func BenchmarkFigure1bRepetitions(b *testing.B) { benchArtifact(b, "figure1b", 1) }
func BenchmarkFigure2Distributions(b *testing.B) {
	benchArtifact(b, "figure2", 1)
}
func BenchmarkFigure3aKMeansCIs(b *testing.B) { benchArtifact(b, "figure3a", 0.08) }
func BenchmarkFigure3bQ68Tail(b *testing.B)   { benchArtifact(b, "figure3b", 0.08) }

// --- Section 3: network variability measurements ---

func BenchmarkTable3Campaign(b *testing.B)    { benchArtifact(b, "table3", 0.05) }
func BenchmarkFigure4HPCCloud(b *testing.B)   { benchArtifact(b, "figure4", 0.05) }
func BenchmarkFigure5GCE(b *testing.B)        { benchArtifact(b, "figure5", 0.05) }
func BenchmarkFigure6EC2(b *testing.B)        { benchArtifact(b, "figure6", 0.05) }
func BenchmarkFigure7EC2Latency(b *testing.B) { benchArtifact(b, "figure7", 0.25) }
func BenchmarkFigure8GCELatency(b *testing.B) { benchArtifact(b, "figure8", 0.25) }
func BenchmarkFigure9Retrans(b *testing.B)    { benchArtifact(b, "figure9", 0.05) }
func BenchmarkFigure10Traffic(b *testing.B)   { benchArtifact(b, "figure10", 0.05) }
func BenchmarkFigure11TokenBucket(b *testing.B) {
	benchArtifact(b, "figure11", 0.2)
}
func BenchmarkFigure12WriteSize(b *testing.B) { benchArtifact(b, "figure12", 0.2) }

// --- Section 4: application-level reproducibility ---

func BenchmarkFigure13Confirm(b *testing.B)    { benchArtifact(b, "figure13", 0.1) }
func BenchmarkFigure14Validation(b *testing.B) { benchArtifact(b, "figure14", 1) }
func BenchmarkTable4Setup(b *testing.B)        { benchArtifact(b, "table4", 1) }
func BenchmarkFigure15Terasort(b *testing.B)   { benchArtifact(b, "figure15", 0.1) }
func BenchmarkFigure16HiBench(b *testing.B)    { benchArtifact(b, "figure16", 0.1) }
func BenchmarkFigure17TPCDS(b *testing.B)      { benchArtifact(b, "figure17", 0.1) }
func BenchmarkFigure18Straggler(b *testing.B)  { benchArtifact(b, "figure18", 0.1) }
func BenchmarkFigure19Depletion(b *testing.B)  { benchArtifact(b, "figure19", 0.1) }

// --- Extensions (beyond the paper) ---

func BenchmarkExtensionCPUBurst(b *testing.B)  { benchArtifact(b, "ext-cpuburst", 0.5) }
func BenchmarkExtensionDiurnal(b *testing.B)   { benchArtifact(b, "ext-diurnal", 0.1) }
func BenchmarkExtensionScenarios(b *testing.B) { benchArtifact(b, "ext-scenarios", 0.1) }

// --- Ablations ---

// BenchmarkAblationBucketIntegration compares the production
// closed-form token-bucket integration against a naive fixed-step
// integrator, for both speed and accuracy (logged as a metric).
func BenchmarkAblationBucketIntegration(b *testing.B) {
	params := tokenbucket.Params{BudgetGbit: 5400, RefillGbps: 1, HighGbps: 10, LowGbps: 1}

	// Fixed-step reference integrator: 10 ms Euler steps.
	fixedStep := func(demand, dt float64) float64 {
		tokens := params.BudgetGbit
		moved := 0.0
		const step = 0.01
		for t := 0.0; t < dt; t += step {
			rate := params.LowGbps
			if tokens > 0 {
				rate = params.HighGbps
			}
			if demand < rate {
				rate = demand
			}
			moved += rate * step
			tokens += (params.RefillGbps - rate) * step
			if tokens > params.BudgetGbit {
				tokens = params.BudgetGbit
			}
			if tokens < 0 {
				tokens = 0
			}
		}
		return moved
	}

	b.Run("closed-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bucket := tokenbucket.MustNew(params)
			_ = bucket.Transfer(1e12, 1000)
		}
	})
	b.Run("fixed-step-10ms", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = fixedStep(1e12, 1000)
		}
	})

	// Report the step integrator's volume error against closed form.
	bucket := tokenbucket.MustNew(params)
	exact := bucket.Transfer(1e12, 1000)
	approx := fixedStep(1e12, 1000)
	b.Logf("volume over 1000 s: closed-form %.3f Gbit, fixed-step %.3f Gbit (err %.4f%%)",
		exact, approx, math.Abs(exact-approx)/exact*100)
}

// BenchmarkAblationCIMethod compares the binomial order-statistic CI
// (no resampling) against percentile bootstrap.
func BenchmarkAblationCIMethod(b *testing.B) {
	src := simrand.New(9)
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = src.Normal(100, 10)
	}
	b.Run("order-statistic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := stats.MedianCI(xs, 0.95); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bootstrap-1000", func(b *testing.B) {
		bs := simrand.New(10)
		for i := 0; i < b.N; i++ {
			if _, err := stats.BootstrapCI(xs, stats.Median, 0.95, 1000, bs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationShuffleModel compares the production max-min
// fair-share network against the aggregate-pipe approximation
// (total shuffle volume / aggregate bandwidth), measuring the runtime
// estimate divergence it would introduce.
func BenchmarkAblationShuffleModel(b *testing.B) {
	const (
		nodes    = 12
		flowGbit = 25.0
	)
	b.Run("max-min-network", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := netem.NewNetwork()
			for k := 0; k < nodes; k++ {
				name := nodeName(k)
				if _, err := n.AddNIC(name, &netem.FixedShaper{RateGbps: 10}, 10); err != nil {
					b.Fatal(err)
				}
			}
			for k := 0; k < nodes*4; k++ {
				src := nodeName(k % nodes)
				dst := nodeName((k + 1 + k/nodes) % nodes)
				if src == dst {
					dst = nodeName((k + 2) % nodes)
				}
				if _, err := n.StartFlow(src, dst, flowGbit, math.Inf(1), nil); err != nil {
					b.Fatal(err)
				}
			}
			for n.ActiveFlows() > 0 && n.Now() < 1e6 {
				n.RunUntilEvent(1e6)
			}
		}
	})
	b.Run("aggregate-pipe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			total := float64(nodes*4) * flowGbit
			aggregate := float64(nodes) * 10
			_ = total / aggregate // single division: trivially fast, no contention detail
		}
	})
}

// --- Hot-path micro-benchmarks ---

func BenchmarkBucketTransferShort(b *testing.B) {
	bucket := tokenbucket.MustNew(tokenbucket.Params{
		BudgetGbit: 5400, RefillGbps: 1, HighGbps: 10, LowGbps: 1,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bucket.SetTokens(100)
		_ = bucket.Transfer(10, 30)
	}
}

func BenchmarkQuantileCI(b *testing.B) {
	src := simrand.New(3)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = src.Normal(0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.QuantileCI(xs, 0.9, 0.95); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicFacade exercises the re-exported API end to end.
func BenchmarkPublicFacade(b *testing.B) {
	for i := 0; i < b.N; i++ {
		src := cloudvar.NewRand(uint64(i))
		bucket, err := cloudvar.NewTokenBucket(cloudvar.TokenBucketParams{
			BudgetGbit: 100, RefillGbps: 1, HighGbps: 10, LowGbps: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = bucket.Transfer(10, 60)
		_ = src.Float64()
	}
}

func nodeName(i int) string {
	return string([]byte{'n', byte('a' + i%26), byte('0' + i/26)})
}
