//go:build race

package workload

// raceEnabled reports whether the race detector is on; allocation counts,
// which its instrumentation adds to, are skipped under it.
const raceEnabled = true
