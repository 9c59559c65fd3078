//go:build race

package obs

// raceEnabled reports whether the race detector is on; timing assertions
// and allocation counts that go through sync.Pool are skipped under it.
const raceEnabled = true
