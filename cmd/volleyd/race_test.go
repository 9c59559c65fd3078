//go:build race

package main

// raceEnabled reports whether the race detector is on; heap measurements,
// which its shadow memory and instrumentation distort, are skipped under it.
const raceEnabled = true
