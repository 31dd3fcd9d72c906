// Package sketch provides bounded-memory streaming statistics for
// week-long measurement campaigns: an online quantile sketch (a
// merging t-digest) plus incremental moment accumulators, so a cell's
// summary statistics cost O(1) memory in campaign duration instead of
// buffering the full bin series.
//
// The paper's argument — and arXiv:2504.11826's — is that cloud
// variability conclusions need long, dense campaigns; the KheOps line
// of work adds that approximation tooling only earns trust when its
// error is a tested, committed contract rather than folklore. sketch
// therefore ships its accuracy guarantee as a data file, contract.json,
// embedded into the binary and enforced by the property suite:
//
//   - epsilon: the maximum rank error of any quantile estimate. For a
//     query at rank p over n observations, the returned value's true
//     rank lies within epsilon + 1/(2n) of p (the 1/(2n) term is the
//     floor any n-sample estimator pays: ranks are only defined at
//     multiples of 1/n).
//   - compression: the t-digest compression budget delta. Larger means
//     more centroids, smaller rank error, more memory.
//   - buffer: the unmerged-insert buffer size; inserts amortise one
//     O(buffer log buffer) merge per buffer fills.
//   - max_centroids: the hard memory cap — the merged centroid count
//     never exceeds it, so a sketch's footprint is bounded by
//     (max_centroids + buffer) float64 pairs regardless of how many
//     observations it absorbs.
//
// The contract test (contract_test.go) proves the epsilon bound
// empirically against exact stats.Sample answers over adversarial
// distributions at several sizes, reading the committed file — so
// loosening the sketch without updating the contract, or tightening
// the contract without fixing the sketch, fails CI.
package sketch

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

//go:embed contract.json
var contractJSON []byte

// Contract is the committed accuracy/memory contract of the sketch,
// loaded from contract.json. Every sketch runs under these parameters
// (the zero Quantile takes them on first Add), so the property suite's
// guarantee applies to every production sketch.
type Contract struct {
	// Epsilon is the maximum rank error of a quantile estimate, beyond
	// the 1/(2n) discretization floor (see MaxRankError).
	Epsilon float64 `json:"epsilon"`
	// Compression is the t-digest compression budget (delta).
	Compression float64 `json:"compression"`
	// Buffer is the unmerged-insert buffer length.
	Buffer int `json:"buffer"`
	// MaxCentroids is the hard cap on merged centroids.
	MaxCentroids int `json:"max_centroids"`
}

// MaxRankError is the contract's rank-error allowance for a sketch
// that absorbed n observations: epsilon plus the 1/(2n) discretization
// floor no n-sample estimator can beat.
func (c Contract) MaxRankError(n int) float64 {
	if n <= 0 {
		return c.Epsilon
	}
	return c.Epsilon + 1/(2*float64(n))
}

// committed is the parsed contract; loading happens once at init so a
// corrupted contract file fails fast and loudly.
var committed = func() Contract {
	var c Contract
	if err := json.Unmarshal(contractJSON, &c); err != nil {
		panic(fmt.Sprintf("sketch: embedded contract.json is invalid: %v", err))
	}
	if c.Epsilon <= 0 || c.Compression < 10 || c.Buffer < 1 || c.MaxCentroids < 8 {
		panic(fmt.Sprintf("sketch: embedded contract.json is implausible: %+v", c))
	}
	return c
}()
