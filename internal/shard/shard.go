// Package shard distributes a measurement campaign across processes
// without giving up the single-process determinism contract.
//
// The paper's methodology wants campaigns dense and long (§3, §5);
// one process caps how dense. shard splits a campaign's cell matrix
// into per-worker assignments and has each worker execute its slice
// with the ordinary fleet + store machinery into a shard-stamped store
// that is its resume state. Every executed cell comes back in the
// worker's answer, and the coordinator hands the results it holds to
// store.MergeShards, which writes a run byte-identical to a
// single-process fleet.Run — the workers=1-vs-8 property extended to
// shards=1-vs-N.
//
// Three design rules make that identity hold:
//
//  1. Assignment is a pure function of (SpecKey, shard count): which
//     worker owns a cell depends only on the campaign's content
//     address and the fleet size, never on worker liveness, load or
//     arrival order. Reassignment after a worker failure re-executes
//     the same labels, and labels key the random substreams, so the
//     retry reproduces the dead worker's bytes exactly.
//  2. Workers never make scheduling decisions. A campaign's batch
//     structure is computed by fleet.Schedule at the coordinator — a
//     fixed campaign is one batch; workers only execute explicit cell
//     lists (fleet.RunCells), and the batch barrier synchronizes at
//     the coordinator so stopping decisions stay repetition-ordered.
//  3. One path from results to merge. The coordinator keeps one
//     result per label, whichever worker, retry or local fallback
//     answered it, and merges those alone: worker stores are never
//     read back, so a lost store cannot thin the run. The merge still
//     refuses ambiguity — it cross-checks the shard's full identity
//     and the coordinator's expected label set.
package shard

import "hash/fnv"

// Owner returns the shard index that owns a cell label in a campaign
// with the given spec key and shard count — a pure function of its
// arguments, so every participant (coordinator, workers, a future
// re-run) computes identical assignments without coordination.
func Owner(specKey, label string, shards int) int {
	h := fnv.New64a()
	h.Write([]byte(specKey))
	h.Write([]byte{':'})
	h.Write([]byte(label))
	return int(h.Sum64() % uint64(shards))
}
