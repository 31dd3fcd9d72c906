// Command tbprobe infers token-bucket parameters from full-speed
// bandwidth probes — the Figure 11 analysis. It incarnates emulated
// c5-family VMs, drives each to exhaustion, and reports the recovered
// time-to-empty, high/low rates and budget. It can also analyse an
// external bandwidth trace from a CSV file produced by cloudbench or
// by real measurement tooling.
//
// Usage:
//
//	tbprobe [-instance c5.xlarge|all] [-probes N] [-seed N]
//	tbprobe -trace FILE.csv [-interval SEC] [-refill GBPS]
package main

import (
	"flag"
	"fmt"
	"os"

	"cloudvar/internal/simrand"
	"cloudvar/internal/stats"
	"cloudvar/internal/tokenbucket"
	"cloudvar/internal/trace"
)

func main() {
	instance := flag.String("instance", "all", "c5 instance name, or 'all'")
	probes := flag.Int("probes", 15, "probe repetitions per instance (paper: 15)")
	seed := flag.Uint64("seed", 1, "random seed")
	tracePath := flag.String("trace", "", "analyse a bandwidth CSV instead of probing emulated VMs")
	interval := flag.Float64("interval", 10, "trace sample interval in seconds")
	refill := flag.Float64("refill", 1, "assumed refill rate in Gbps")
	flag.Parse()

	if *tracePath != "" {
		if err := analyzeFile(*tracePath, *interval, *refill); err != nil {
			fatal(err)
		}
		return
	}

	src := simrand.New(*seed)
	specs := tokenbucket.C5Family()
	if *instance != "all" {
		var filtered []tokenbucket.InstanceSpec
		for _, s := range specs {
			if s.Name == *instance {
				filtered = append(filtered, s)
			}
		}
		if len(filtered) == 0 {
			fatal(fmt.Errorf("unknown instance %q", *instance))
		}
		specs = filtered
	}

	fmt.Printf("%-12s %10s %10s %10s %10s %12s\n",
		"instance", "tte p25[s]", "tte p50[s]", "tte p75[s]", "high[Gbps]", "budget[Gbit]")
	for _, spec := range specs {
		var ttes, highs, budgets []float64
		for i := 0; i < *probes; i++ {
			params := spec.Incarnate(src)
			inf, err := probeOnce(params)
			if err != nil {
				continue
			}
			ttes = append(ttes, inf.TimeToEmptySec)
			highs = append(highs, inf.HighGbps)
			budgets = append(budgets, inf.BudgetGbit)
		}
		if len(ttes) == 0 {
			fmt.Printf("%-12s  no throttle detected in %d probes\n", spec.Name, *probes)
			continue
		}
		var sample stats.Sample
		q := sample.Reset(ttes).Percentiles(nil, 0.25, 0.5, 0.75)
		fmt.Printf("%-12s %10.0f %10.0f %10.0f %10.1f %12.0f\n",
			spec.Name, q[0], q[1], q[2], sample.Reset(highs).Median(), sample.Reset(budgets).Median())
	}
}

// probeOnce probes one incarnation as Figure 11 does.
func probeOnce(params tokenbucket.Params) (tokenbucket.Inferred, error) {
	return tokenbucket.Probe(params)
}

func analyzeFile(path string, interval, refill float64) error {
	fh, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	s, err := trace.ReadCSV(fh, path, interval)
	if err != nil {
		return err
	}
	inf, err := tokenbucket.InferParams(s.Bandwidths(), interval, refill)
	if err != nil {
		return err
	}
	fmt.Printf("trace: %s (%d samples)\n", path, len(s.Points))
	fmt.Printf("time-to-empty: %.0f s\n", inf.TimeToEmptySec)
	fmt.Printf("high rate:     %.2f Gbps\n", inf.HighGbps)
	fmt.Printf("low rate:      %.2f Gbps\n", inf.LowGbps)
	fmt.Printf("budget:        %.0f Gbit (assuming %.1f Gbps refill)\n", inf.BudgetGbit, refill)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tbprobe:", err)
	os.Exit(1)
}
