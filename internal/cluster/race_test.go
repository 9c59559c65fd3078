//go:build race

package cluster

// raceEnabled reports whether the race detector is on; allocation counts
// that go through sync.Pool are skipped under it.
const raceEnabled = true
