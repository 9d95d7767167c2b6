//go:build race

package shard

// raceEnabled reports that this binary was built with the race detector,
// whose instrumentation allocates on paths that are allocation-free in
// normal builds.
const raceEnabled = true
