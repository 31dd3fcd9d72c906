package main

// The reference task measures the host's speed, so that campaign cost
// can be stated in units that do not move when the host does. It uses
// only the standard library, so no change to the program moves it, and
// it must itself never change: every cpu_refs figure ever recorded is
// a multiple of it. Its mix, sorting, map updates, fresh allocations
// and hashing over about 1.5 MB, is a small cut of what a campaign does.

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"time"
)

// refSink keeps the compiler from discarding the reference work.
var refSink uint64

func refWork() uint64 {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	xs := make([]float64, 1<<16)
	for i := range xs {
		xs[i] = float64(next() >> 11)
	}
	sort.Float64s(xs)
	m := make(map[uint64]int)
	for i := 0; i < 1<<14; i++ {
		m[next()&0xffff] += i
	}
	buf := make([]byte, 1<<19)
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], next())
	}
	sum := sha256.Sum256(buf)
	return uint64(len(m)) + uint64(xs[len(xs)/2]) + uint64(sum[0])
}

// refCPU runs the reference task once and returns the CPU time it took.
func refCPU() time.Duration {
	c0 := cpuTime()
	refSink += refWork()
	return cpuTime() - c0
}
