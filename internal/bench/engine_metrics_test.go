package bench

import (
	"errors"
	"testing"
)

// TestEngineMetrics verifies the pool's shared instrumentation: completed
// cells accumulate across serial and parallel engines, failed cells do not
// count, and the busy gauge returns to zero once ForEach returns.
func TestEngineMetrics(t *testing.T) {
	before, _ := EngineMetrics()

	if err := NewEngine(1).ForEach(10, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := NewEngine(4).ForEach(25, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	after, busy := EngineMetrics()
	if got := after - before; got != 35 {
		t.Errorf("cells delta = %d, want 35", got)
	}
	if busy != 0 {
		t.Errorf("busy = %v after ForEach returned, want 0", busy)
	}

	boom := errors.New("boom")
	_ = NewEngine(1).ForEach(5, func(i int) error {
		if i == 2 {
			return boom
		}
		return nil
	})
	failedAfter, busy := EngineMetrics()
	if got := failedAfter - after; got != 2 {
		t.Errorf("cells delta after failure = %d, want 2 (indices 0 and 1)", got)
	}
	if busy != 0 {
		t.Errorf("busy = %v after failed ForEach, want 0", busy)
	}
}

// TestEngineCellsCountGridCells: the cells one figure run adds to
// EngineMetrics are the jobs of its own pools — Fig. 5b's per-series
// threshold pass and its (k × err) grid — and not the per-series replays a
// grid cell runs inline through serialEngine, so the count is the same
// whether the cells run on one worker or on four.
func TestEngineCellsCountGridCells(t *testing.T) {
	cells := func(procs int) uint64 {
		p := Quick()
		p.Procs = procs
		before, _ := EngineMetrics()
		if _, err := RunFig5b(p); err != nil {
			t.Fatal(err)
		}
		after, _ := EngineMetrics()
		return after - before
	}
	serial, parallel := cells(1), cells(4)
	if serial != parallel {
		t.Errorf("Fig. 5b counted %d cells at Procs 1 and %d at Procs 4", serial, parallel)
	}
	p := Quick()
	series, err := GenSystem(p.SysNodes, p.SysMetricsPerNode, p.SysSteps, p.Seed+100)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(len(series) + len(p.Ks)*len(p.Errs)); serial != want {
		t.Errorf("Fig. 5b counted %d cells, want %d series and a %d×%d grid", serial, len(series), len(p.Ks), len(p.Errs))
	}
}
