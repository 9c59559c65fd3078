package bench

import (
	"fmt"
	"testing"

	"volley/internal/stats"
	"volley/internal/task"
)

// TestParallelMatchesSerial is the engine's determinism contract: on the
// Quick preset, the fanned experiment paths must produce byte-identical
// results to the fully serial -procs=1 path — same floats bit for bit,
// same rendered tables. Run under -race (make check does) this also
// exercises the worker pool for data races.
func TestParallelMatchesSerial(t *testing.T) {
	serial := Quick()
	serial.Procs = 1
	parallel := Quick()
	parallel.Procs = 4

	// render pins every result to a comparable byte string; %v formats
	// NaN deterministically, so NaN-valued cells compare too.
	render := func(v any) string { return fmt.Sprintf("%+v", v) }

	t.Run("sweep", func(t *testing.T) {
		s, err := RunFig5b(serial)
		if err != nil {
			t.Fatal(err)
		}
		p, err := RunFig5b(parallel)
		if err != nil {
			t.Fatal(err)
		}
		if render(*s) != render(*p) {
			t.Errorf("SweepResult diverged between procs=1 and procs=4:\nserial:   %s\nparallel: %s", render(*s), render(*p))
		}
		if s.RatioTable() != p.RatioTable() || s.MisdetectTable() != p.MisdetectTable() {
			t.Error("rendered sweep tables diverged between procs=1 and procs=4")
		}
	})

	t.Run("ablation", func(t *testing.T) {
		s, err := RunAblationSlack(serial)
		if err != nil {
			t.Fatal(err)
		}
		p, err := RunAblationSlack(parallel)
		if err != nil {
			t.Fatal(err)
		}
		if render(*s) != render(*p) {
			t.Errorf("AblationResult diverged between procs=1 and procs=4:\nserial:   %s\nparallel: %s", render(*s), render(*p))
		}
		if s.Table() != p.Table() {
			t.Error("rendered ablation tables diverged between procs=1 and procs=4")
		}
	})

	t.Run("fig8", func(t *testing.T) {
		s, err := RunFig8(serial)
		if err != nil {
			t.Fatal(err)
		}
		p, err := RunFig8(parallel)
		if err != nil {
			t.Fatal(err)
		}
		if render(*s) != render(*p) {
			t.Errorf("Fig8Result diverged between procs=1 and procs=4:\nserial:   %s\nparallel: %s", render(*s), render(*p))
		}
		if s.Table() != p.Table() {
			t.Error("rendered fig8 tables diverged between procs=1 and procs=4")
		}
	})

	t.Run("tenant workload", func(t *testing.T) {
		s, err := RunWorkloadTenant(serial)
		if err != nil {
			t.Fatal(err)
		}
		p, err := RunWorkloadTenant(parallel)
		if err != nil {
			t.Fatal(err)
		}
		if s.Gating == nil || p.Gating == nil {
			t.Fatal("the tenant workload has no gated row")
		}
		// The gated row by value: %+v would print the pointer.
		flat := func(r WorkloadResult) string {
			g := *r.Gating
			r.Gating = nil
			return render(r) + render(g)
		}
		if flat(*s) != flat(*p) {
			t.Errorf("WorkloadResult diverged between procs=1 and procs=4:\nserial:   %s\nparallel: %s", flat(*s), flat(*p))
		}
		if s.Table() != p.Table() {
			t.Error("rendered tenant workload tables diverged between procs=1 and procs=4")
		}
	})

	t.Run("baselines", func(t *testing.T) {
		s, err := RunBaselines(serial, 1, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		p, err := RunBaselines(parallel, 1, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if render(*s) != render(*p) {
			t.Errorf("BaselineResult diverged between procs=1 and procs=4:\nserial:   %s\nparallel: %s", render(*s), render(*p))
		}
		if s.Table() != p.Table() {
			t.Error("rendered baseline tables diverged between procs=1 and procs=4")
		}
	})
}

// TestCachedThresholdsMatchPerCellSorts pins the exact oracle to the
// original per-cell derivation: for every (series, k) the value read from
// the shared sorted copy must equal ThresholdForSelectivity exactly (same
// order statistics, same interpolation), so what the streaming cache is
// audited against is the derivation the figures were first drawn with.
func TestCachedThresholdsMatchPerCellSorts(t *testing.T) {
	p := Quick()
	series, err := GenSystem(3, 2, 800, 42)
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := sortedCopies(NewEngine(2), series)
	if err != nil {
		t.Fatal(err)
	}
	grid := make([][]float64, len(p.Ks))
	for ki := range grid {
		grid[ki] = make([]float64, len(series))
	}
	for i, s := range sorted {
		ts, err := task.Thresholds(s, p.Ks)
		if err != nil {
			t.Fatal(err)
		}
		for ki := range p.Ks {
			grid[ki][i] = ts[ki]
		}
	}
	for ki, k := range p.Ks {
		want, err := ReplayMany(series, k, ReplayConfig{Err: 0.01, MaxInterval: p.MaxInterval, Patience: p.Patience})
		if err != nil {
			t.Fatal(err)
		}
		got, err := replayPooled(serialEngine, series, grid[ki], ReplayConfig{Err: 0.01, MaxInterval: p.MaxInterval, Patience: p.Patience})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", want) != fmt.Sprintf("%+v", got) {
			t.Errorf("k=%v: cached-threshold replay %+v != per-cell replay %+v", k, got, want)
		}
	}
}

// TestStreamingThresholdsWithinBoundOnPresets is the streaming backend's
// accuracy contract on the committed workloads: for every series of every
// Quick-preset workload (network, system, application, and the stationary
// network slice Fig. 8 uses), the sketch-derived threshold at each grid
// selectivity must sit within stats.SketchRankErrorBound of the requested
// rank in that series' true empirical distribution.
func TestStreamingThresholdsWithinBoundOnPresets(t *testing.T) {
	p := Quick()
	workloads := map[string]func() ([][]float64, error){
		"network": func() ([][]float64, error) {
			w, err := GenNetwork(p.NetServers, p.NetVMsPerServer, p.NetWindows, p.NetFlowsPerWindow, p.Seed)
			if err != nil {
				return nil, err
			}
			return w.Rho, nil
		},
		"system": func() ([][]float64, error) {
			return GenSystem(p.SysNodes, p.SysMetricsPerNode, p.SysSteps, p.Seed+100)
		},
		"application": func() ([][]float64, error) {
			return GenApp(p.AppServers, p.AppObjects, p.AppTopObjects, p.AppSteps, p.Seed+200)
		},
		"network-stationary": func() ([][]float64, error) {
			w, err := GenNetworkStationary(p.NetServers, p.NetVMsPerServer, p.NetWindows, p.NetFlowsPerWindow, p.Seed+300)
			if err != nil {
				return nil, err
			}
			return w.Rho[:p.Fig8Monitors], nil
		},
	}
	for name, gen := range workloads {
		t.Run(name, func(t *testing.T) {
			series, err := gen()
			if err != nil {
				t.Fatal(err)
			}
			r, err := StreamingErrorCheck(name, series, p.Ks)
			if err != nil {
				t.Fatal(err)
			}
			if r.MaxRankError > stats.SketchRankErrorBound {
				t.Errorf("%s: worst streaming threshold is off by %.4f in rank (bound %v)",
					name, r.MaxRankError, stats.SketchRankErrorBound)
			}
			t.Logf("%s: %d series, max rank error %.4f", name, r.Series, r.MaxRankError)
		})
	}
}
