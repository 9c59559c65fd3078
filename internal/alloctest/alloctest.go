// Package alloctest measures what a piece of code allocates, for the
// allocation tests that bound bytes rather than counts (testing.AllocsPerRun
// counts mallocs and averages them).
//
// runtime.MemStats.TotalAlloc is process-wide: a runtime thread start
// (runtime.allocm, ≈ 5 KB), a timer or another test's goroutine can land
// inside any one reading. Least therefore measures several rounds and keeps
// the least: the round nothing else allocated during. Code that really
// allocates does so on every round, so the least still shows it.
package alloctest

import (
	"math"
	"runtime"
)

// Least runs setup (unless nil) and then f, rounds times, and returns the
// least bytes and the fewest heap objects the process allocated across any
// one call of f. What setup allocates is not counted. With rounds 1 it is a
// single reading, for code that can run only once.
func Least(rounds int, setup, f func()) (bytes, mallocs uint64) {
	bytes, mallocs = math.MaxUint64, math.MaxUint64
	var before, after runtime.MemStats
	for range max(rounds, 1) {
		if setup != nil {
			setup()
		}
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
	}
	return bytes, mallocs
}
