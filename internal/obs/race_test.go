//go:build race

package obs

// raceEnabled reports whether the race detector is on; timing assertions
// are skipped under it.
const raceEnabled = true
