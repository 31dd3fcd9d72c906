package main

// Steadiness mode: run one workload N times, each as its own process
// with its own seed — the way a regression gate runs it — and print
// each end-to-end metric's median, quartiles, and spreads.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

func runSteady(workload string, seed uint64, seconds, n int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	values := map[string][]float64{}
	ok := true
	for k := 0; k < n; k++ {
		s := seed + uint64(k)
		var out bytes.Buffer
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", "0")
		cmd.Stdout, cmd.Stderr = &out, stderr
		err := cmd.Run()
		res, perr := lastResult(out.Bytes())
		if err != nil || perr != nil || !res.Correct {
			fmt.Fprintf(stderr, "perfbench: seed %d: run failed (%v, %v)\n", s, err, perr)
			ok = false
			continue
		}
		fmt.Fprintf(stdout, "seed %d:", s)
		for _, m := range endToEnd {
			v := res.Metrics[m.name].Value
			values[m.name] = append(values[m.name], v)
			fmt.Fprintf(stdout, " %s=%.6g", m.name, v)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "\n%-14s %12s %12s %12s %10s %10s\n", "metric", "median", "q1", "q3", "iqr/med", "range/med")
	for _, m := range endToEnd {
		vs := values[m.name]
		if len(vs) < 2 {
			continue
		}
		med := median(vs)
		q1, q3 := quartiles(vs)
		lo, hi := vs[0], vs[0]
		for _, v := range vs {
			lo, hi = min(lo, v), max(hi, v)
		}
		fmt.Fprintf(stdout, "%-14s %12.6g %12.6g %12.6g %10.4f %10.4f\n", m.name, med, q1, q3, (q3-q1)/med, (hi-lo)/med)
	}
	if !ok {
		return 1
	}
	return 0
}

// lastResult parses the JSON result on the last line of a run's output.
func lastResult(out []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	err := json.Unmarshal(lines[len(lines)-1], &res)
	return res, err
}
