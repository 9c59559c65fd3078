package bench

import (
	"runtime"
	"sync"
	"sync/atomic"

	"volley/internal/obs"
)

// Package-level engine instrumentation, shared by every pool (presets
// construct engines internally, so per-engine registries would be
// unreachable). Zero values are usable; reads go through EngineMetrics.
var (
	engineCells obs.Counter // experiment cells completed across all pools
	engineBusy  obs.Gauge   // workers currently inside a job function
)

// EngineMetrics reports the total number of completed experiment cells and
// the number of workers currently executing a job, across every engine in
// the process. cells/sec over a wall-clock window gives sweep throughput;
// busy vs Procs gives worker utilization.
func EngineMetrics() (cells uint64, busy float64) {
	return engineCells.Value(), engineBusy.Value()
}

// Engine is the bounded worker pool behind every figure sweep. It fans
// independent experiment cells (grid cells of a sweep, ablation
// configurations, per-series replays, per-skew distributed runs) across
// cores while keeping output bit-identical to a serial run:
//
//   - jobs are identified by a dense index i ∈ [0, n) and must write their
//     result only into slot i of a pre-allocated result slice, never into
//     shared accumulators;
//   - reductions over slots happen after ForEach returns, in index order,
//     so floating-point accumulation order never depends on scheduling;
//   - job functions must not depend on execution order (each cell derives
//     everything it needs — samplers, RNGs — from its own index).
//
// The pool size defaults to runtime.GOMAXPROCS(0); an Engine with one
// worker degenerates to a plain loop with no goroutines at all, which is
// the -procs=1 serial fallback.
type Engine struct {
	procs int
}

// NewEngine returns an engine with the given number of workers; procs ≤ 0
// selects runtime.GOMAXPROCS(0).
func NewEngine(procs int) *Engine {
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	return &Engine{procs: procs}
}

// serialEngine is used inside already-parallel regions (e.g. per-cell work
// of a fanned sweep) so pools never nest. Its items are the parts of a cell
// that is counted already, so it runs them inline without counting them:
// the cell count of a figure does not depend on how its cells do their work.
var serialEngine = &Engine{procs: 1}

// Procs reports the engine's worker count.
func (e *Engine) Procs() int { return e.procs }

// ForEach runs fn(i) for every i in [0, n), fanning the calls across the
// pool. On the first error the remaining unstarted jobs are cancelled,
// already-running jobs finish, and the error with the lowest index is
// returned — so the reported failure does not depend on scheduling. With
// one worker (or n ≤ 1) it runs fn inline in index order.
func (e *Engine) ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if e == serialEngine {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	workers := e.procs
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			engineBusy.Add(1)
			err := fn(i)
			engineBusy.Add(-1)
			if err != nil {
				return err
			}
			engineCells.Inc()
		}
		return nil
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	errs := make([]error, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Check for failure before claiming, never after: indices
				// are claimed densely from 0, so every index below a
				// failing one is already claimed and will run, which makes
				// the lowest recorded error the same one a serial run
				// would have hit first.
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				engineBusy.Add(1)
				err := fn(i)
				engineBusy.Add(-1)
				if err != nil {
					errs[i] = err // distinct slot per job: race-free
					failed.Store(true)
				} else {
					engineCells.Inc()
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// engine builds the preset's worker pool: Procs workers, with 0 meaning
// "all cores".
func (p Preset) engine() *Engine { return NewEngine(p.Procs) }
