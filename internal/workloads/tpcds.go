package workloads

import (
	"fmt"
	"sort"
	"strconv"

	"cloudvar/internal/spark"
)

// tpcdsSpec is the calibration row for one TPC-DS query profile.
type tpcdsSpec struct {
	query int
	// scanSec is the per-task compute of the scan stage (one wave).
	scanSec float64
	// shuffleGbit is the per-task join-shuffle volume.
	shuffleGbit float64
	// joinSec is the per-task compute of the join/aggregate stage.
	joinSec float64
	// hotFrac routes this fraction of shuffle reads to the hot node
	// (fact-table-partition skew).
	hotFrac float64
}

// tpcdsCatalog covers the 21 queries of Figure 17. Calibration logic:
// at full budget a shuffle read of g Gbit takes ~0.4·g seconds on the
// Table 4 cluster (4 concurrent flows share a 10 Gbps egress), while
// on a depleted bucket it takes ~4·g seconds (1 Gbps low rate), so a
// query's budget sensitivity grows with its shuffle volume relative to
// its compute. Query 65 is the budget-sensitive extreme and query 82
// the budget-agnostic one, matching Figure 19's contrast; overall
// roughly 80% of the queries are network-dependent enough to produce
// poor median estimates when buckets deplete.
var tpcdsCatalog = []tpcdsSpec{
	{query: 3, scanSec: 6, shuffleGbit: 20, joinSec: 12},
	{query: 7, scanSec: 10, shuffleGbit: 35, joinSec: 18},
	{query: 19, scanSec: 8, shuffleGbit: 12.5, joinSec: 14},
	{query: 27, scanSec: 12, shuffleGbit: 40, joinSec: 20, hotFrac: 0.2},
	{query: 34, scanSec: 9, shuffleGbit: 1.5, joinSec: 15},
	{query: 42, scanSec: 7, shuffleGbit: 25, joinSec: 10},
	{query: 43, scanSec: 11, shuffleGbit: 30, joinSec: 16},
	{query: 46, scanSec: 14, shuffleGbit: 50, joinSec: 22, hotFrac: 0.25},
	{query: 52, scanSec: 6, shuffleGbit: 17.5, joinSec: 9},
	{query: 53, scanSec: 8, shuffleGbit: 22.5, joinSec: 12},
	{query: 55, scanSec: 5, shuffleGbit: 15, joinSec: 8},
	{query: 59, scanSec: 20, shuffleGbit: 55, joinSec: 30, hotFrac: 0.2},
	{query: 63, scanSec: 9, shuffleGbit: 25, joinSec: 13},
	{query: 65, scanSec: 8, shuffleGbit: 62.5, joinSec: 20, hotFrac: 0.25},
	{query: 68, scanSec: 16, shuffleGbit: 45, joinSec: 24},
	{query: 70, scanSec: 25, shuffleGbit: 70, joinSec: 35, hotFrac: 0.2},
	{query: 73, scanSec: 10, shuffleGbit: 35, joinSec: 14},
	{query: 79, scanSec: 13, shuffleGbit: 40, joinSec: 18},
	{query: 82, scanSec: 35, shuffleGbit: 0.5, joinSec: 30},
	{query: 89, scanSec: 12, shuffleGbit: 30, joinSec: 17},
	{query: 98, scanSec: 55, shuffleGbit: 87.5, joinSec: 60, hotFrac: 0.15},
}

// TPCDSQueryNumbers returns the Figure 17 query set in ascending
// order.
func TPCDSQueryNumbers() []int {
	out := make([]int, len(tpcdsCatalog))
	for i, s := range tpcdsCatalog {
		out[i] = s.query
	}
	sort.Ints(out)
	return out
}

func (s tpcdsSpec) app() App {
	// Rough network-time share under a depleted budget, for ranking.
	netLow := 4 * s.shuffleGbit
	base := s.scanSec + 0.4*s.shuffleGbit + s.joinSec
	return App{
		Name:             fmt.Sprintf("q%d", s.query),
		Abbrev:           fmt.Sprintf("%d", s.query),
		Suite:            "tpcds",
		NetworkIntensity: netLow / (base + netLow),
		Job: spark.Job{
			Name: fmt.Sprintf("tpcds-q%d", s.query),
			Stages: []spark.StageSpec{
				{Name: "scan", Tasks: tasksPerWave, ComputeSec: s.scanSec, SkewFrac: 0.04},
				{
					Name: "join", Tasks: tasksPerWave,
					ShuffleGbit: s.shuffleGbit, ComputeSec: s.joinSec,
					SkewFrac: 0.05, HotPeerFrac: s.hotFrac,
				},
			},
		},
	}
}

// TPCDS returns all 21 query profiles in catalog order.
func TPCDS() []App {
	out := make([]App, len(tpcdsCatalog))
	for i, s := range tpcdsCatalog {
		out[i] = s.app()
	}
	return out
}

// TPCDSQuery returns the profile for one query number.
func TPCDSQuery(number int) (App, error) {
	for _, s := range tpcdsCatalog {
		if s.query == number {
			return s.app(), nil
		}
	}
	return App{}, fmt.Errorf("workloads: TPC-DS query %d not in the Figure 17 set", number)
}

// AllApps returns every workload in both suites.
func AllApps() []App {
	return append(HiBench(), TPCDS()...)
}

// ByName finds any workload by name ("terasort", "q65", ...). Of the
// TPC-DS queries it builds only the one whose name matches.
func ByName(name string) (App, error) {
	for _, a := range HiBench() {
		if a.Name == name {
			return a, nil
		}
	}
	for _, s := range tpcdsCatalog {
		if name == "q"+strconv.Itoa(s.query) {
			return s.app(), nil
		}
	}
	return App{}, fmt.Errorf("workloads: unknown workload %q", name)
}
