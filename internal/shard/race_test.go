//go:build race

package shard

// raceEnabled reports a build with the race detector. Its sync.Pool
// drops pooled objects at random, so fmt and others allocate more than
// they do in a plain build, at random: allocation bounds do not hold.
const raceEnabled = true
