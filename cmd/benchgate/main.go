// Command benchgate is the performance regression gate: it runs the
// named hot-path benchmark suites, folds their results into
// BENCH_pipeline.json (ns/op, B/op, allocs/op per benchmark), and
// compares them against a committed baseline, failing when any gated
// benchmark regresses beyond the configured tolerance.
//
// Usage:
//
//	benchgate [-config benchgate.json] [-baseline BENCH_baseline.json]
//	          [-out BENCH_pipeline.json] [-update] [-v]
//
// Allocation and byte counts are near-deterministic for fixed
// -benchtime iteration counts, so they gate tightly and portably.
// Wall-clock ns/op depends on the host, so it is recorded in every
// BENCH_pipeline.json (the per-commit trajectory artifact CI uploads)
// but only gated when the config sets ns_ratio > 0 — the committed
// default leaves it 0, because a laptop baseline would spuriously
// fail a slower CI runner.
//
// -update rewrites the baseline from the freshly measured results;
// commit the result whenever an intentional performance change lands.
// Exit status: 0 clean, 1 regression (or benchmark missing vs the
// baseline), 2 usage or execution error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Config is the committed gate configuration: which suites to run and
// how much headroom a benchmark gets before a difference is a
// regression.
type Config struct {
	Suites    []Suite   `json:"suites"`
	Tolerance Tolerance `json:"tolerance"`
}

// Suite is one `go test -bench` invocation.
type Suite struct {
	// Package is the package pattern (e.g. "./internal/stats").
	Package string `json:"package"`
	// Bench is the -bench regular expression.
	Bench string `json:"bench"`
	// Benchtime is the -benchtime value; fixed iteration counts
	// ("100x") keep allocs/op deterministic.
	Benchtime string `json:"benchtime"`
}

// Tolerance bounds how far a measurement may drift above its baseline
// before the gate fails: new <= max(base*ratio, base+slack). A zero
// ratio disables that dimension.
type Tolerance struct {
	AllocsRatio float64 `json:"allocs_ratio"`
	AllocsSlack float64 `json:"allocs_slack"`
	BytesRatio  float64 `json:"bytes_ratio"`
	BytesSlack  float64 `json:"bytes_slack"`
	NsRatio     float64 `json:"ns_ratio"`
	NsSlack     float64 `json:"ns_slack"`
}

// Result is one benchmark measurement. Names are normalised by
// stripping the trailing -GOMAXPROCS suffix so baselines port across
// machines.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Report is the BENCH_pipeline.json / baseline document.
type Report struct {
	Schema     int      `json:"schema"`
	Benchmarks []Result `json:"benchmarks"`
}

// runSuite executes one suite and returns the raw `go test` output.
// Injectable so the parser and gate are testable without a toolchain.
var runSuite = func(s Suite, stderr io.Writer) ([]byte, error) {
	args := []string{"test", s.Package, "-run", "^$", "-bench", s.Bench, "-benchmem"}
	if s.Benchtime != "" {
		args = append(args, "-benchtime", s.Benchtime)
	}
	cmd := exec.Command("go", args...)
	cmd.Stderr = stderr
	return cmd.Output()
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(.*)`)

// parseBench extracts benchmark results from `go test -bench` output.
func parseBench(out []byte) ([]Result, error) {
	var results []Result
	for _, line := range strings.Split(string(out), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		r := Result{Name: stripProcs(m[1])}
		var err error
		if r.Iterations, err = strconv.ParseInt(m[2], 10, 64); err != nil {
			return nil, fmt.Errorf("benchgate: parsing %q: %w", line, err)
		}
		if r.NsPerOp, err = strconv.ParseFloat(m[3], 64); err != nil {
			return nil, fmt.Errorf("benchgate: parsing %q: %w", line, err)
		}
		// After ns/op come value-unit pairs: the metrics a benchmark
		// reports itself (b.ReportMetric), then -benchmem's B/op and
		// allocs/op.
		rest := strings.Fields(m[4])
		for i := 0; i+1 < len(rest); i += 2 {
			var dst *float64
			switch rest[i+1] {
			case "B/op":
				dst = &r.BytesPerOp
			case "allocs/op":
				dst = &r.AllocsPerOp
			default:
				continue
			}
			if *dst, err = strconv.ParseFloat(rest[i], 64); err != nil {
				return nil, fmt.Errorf("benchgate: parsing %q: %w", line, err)
			}
		}
		results = append(results, r)
	}
	return results, nil
}

// stripProcs removes the trailing -GOMAXPROCS suffix Go appends to
// benchmark names, so "BenchmarkX/n=32-8" compares across machines.
func stripProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// regression describes one gate failure.
type regression struct {
	name, metric string
	base, got    float64
	allowed      float64
	missing      bool
}

func (r regression) String() string {
	if r.missing {
		return fmt.Sprintf("%s: present in baseline but not measured (renamed or deleted? run -update after intentional changes)", r.name)
	}
	return fmt.Sprintf("%s: %s regressed: baseline %.6g, measured %.6g, allowed %.6g",
		r.name, r.metric, r.base, r.got, r.allowed)
}

// gate compares results against the baseline under tol. Benchmarks in
// the results but absent from the baseline pass (new benches need an
// -update to start gating); baseline entries with no measurement fail.
func gate(baseline, results []Result, tol Tolerance) []regression {
	byName := make(map[string]Result, len(results))
	for _, r := range results {
		byName[r.Name] = r
	}
	var regs []regression
	check := func(name, metric string, base, got, ratio, slack float64) {
		if ratio <= 0 {
			return
		}
		allowed := base * ratio
		if withSlack := base + slack; withSlack > allowed {
			allowed = withSlack
		}
		if got > allowed {
			regs = append(regs, regression{name: name, metric: metric, base: base, got: got, allowed: allowed})
		}
	}
	for _, b := range baseline {
		r, ok := byName[b.Name]
		if !ok {
			regs = append(regs, regression{name: b.Name, missing: true})
			continue
		}
		check(b.Name, "allocs/op", b.AllocsPerOp, r.AllocsPerOp, tol.AllocsRatio, tol.AllocsSlack)
		check(b.Name, "B/op", b.BytesPerOp, r.BytesPerOp, tol.BytesRatio, tol.BytesSlack)
		check(b.Name, "ns/op", b.NsPerOp, r.NsPerOp, tol.NsRatio, tol.NsSlack)
	}
	return regs
}

func readJSON(path string, v interface{}) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fl.SetOutput(stderr)
	configPath := fl.String("config", "benchgate.json", "gate configuration (suites + tolerances)")
	baselinePath := fl.String("baseline", "BENCH_baseline.json", "committed baseline to gate against")
	outPath := fl.String("out", "BENCH_pipeline.json", "where to write the measured results")
	update := fl.Bool("update", false, "rewrite the baseline from the fresh measurements and exit")
	verbose := fl.Bool("v", false, "print every measured benchmark")
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var cfg Config
	if err := readJSON(*configPath, &cfg); err != nil {
		fmt.Fprintln(stderr, "benchgate: reading config:", err)
		return 2
	}
	if len(cfg.Suites) == 0 {
		fmt.Fprintln(stderr, "benchgate: config has no suites")
		return 2
	}

	var results []Result
	for _, s := range cfg.Suites {
		fmt.Fprintf(stdout, "benchgate: %s -bench %s -benchtime %s\n", s.Package, s.Bench, s.Benchtime)
		out, err := runSuite(s, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchgate: running %s: %v\n", s.Package, err)
			return 2
		}
		rs, err := parseBench(out)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if len(rs) == 0 {
			fmt.Fprintf(stderr, "benchgate: suite %s (%s) produced no benchmark results\n", s.Package, s.Bench)
			return 2
		}
		results = append(results, rs...)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })
	if *verbose {
		for _, r := range results {
			fmt.Fprintf(stdout, "  %-60s %12.1f ns/op %10.0f B/op %8.0f allocs/op\n",
				r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		}
	}

	report := Report{Schema: 1, Benchmarks: results}
	if err := writeJSON(*outPath, report); err != nil {
		fmt.Fprintln(stderr, "benchgate: writing results:", err)
		return 2
	}
	fmt.Fprintf(stdout, "benchgate: wrote %d benchmarks to %s\n", len(results), *outPath)

	if *update {
		if err := writeJSON(*baselinePath, report); err != nil {
			fmt.Fprintln(stderr, "benchgate: writing baseline:", err)
			return 2
		}
		fmt.Fprintf(stdout, "benchgate: baseline %s updated\n", *baselinePath)
		return 0
	}

	var baseline Report
	if err := readJSON(*baselinePath, &baseline); err != nil {
		fmt.Fprintln(stderr, "benchgate: reading baseline:", err)
		fmt.Fprintln(stderr, "benchgate: run with -update to create it")
		return 2
	}
	regs := gate(baseline.Benchmarks, results, cfg.Tolerance)
	if len(regs) > 0 {
		for _, r := range regs {
			fmt.Fprintln(stderr, "benchgate: FAIL:", r)
		}
		return 1
	}
	fmt.Fprintf(stdout, "benchgate: %d gated benchmarks within tolerance\n", len(baseline.Benchmarks))
	return 0
}
