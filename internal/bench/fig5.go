package bench

import (
	"fmt"
)

// SweepResult holds a (selectivity × error-allowance) grid of pooled
// replay results — the data behind Figures 5 and 7.
type SweepResult struct {
	// Name identifies the experiment (e.g. "fig5a-network").
	Name string
	// Errs is the error-allowance axis, Ks the selectivity series.
	Errs []float64
	Ks   []float64
	// Cells is indexed [k][err].
	Cells [][]PooledResult
}

// RunSweep replays every series of one workload over the full
// (k × err) grid. Thresholds are derived from one sorted copy per series
// (not one per cell), and the independent grid cells are fanned across the
// preset's worker pool; every cell writes its own slot, so the grid is
// identical for any worker count.
func RunSweep(name string, series [][]float64, p Preset) (*SweepResult, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("bench: %s: no series", name)
	}
	eng := p.engine()
	cache, err := newThresholdCache(eng, series, p.Ks)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", name, err)
	}
	thresholds, err := cache.grid(p.Ks)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", name, err)
	}
	out := &SweepResult{
		Name:  name,
		Errs:  p.Errs,
		Ks:    p.Ks,
		Cells: make([][]PooledResult, len(p.Ks)),
	}
	for ki := range p.Ks {
		out.Cells[ki] = make([]PooledResult, len(p.Errs))
	}
	err = eng.ForEach(len(p.Ks)*len(p.Errs), func(idx int) error {
		ki, ei := idx/len(p.Errs), idx%len(p.Errs)
		r, err := replayPooled(serialEngine, series, thresholds[ki], ReplayConfig{
			Err:         p.Errs[ei],
			MaxInterval: p.MaxInterval,
			Patience:    p.Patience,
		})
		if err != nil {
			return fmt.Errorf("bench: %s k=%v err=%v: %w", name, p.Ks[ki], p.Errs[ei], err)
		}
		out.Cells[ki][ei] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RatioTable renders the sampling-ratio grid (Figure 5's y-axis: sampling
// operations of Volley over periodical sampling at the default interval).
func (s *SweepResult) RatioTable() string {
	header := make([]string, 0, len(s.Errs)+1)
	header = append(header, "selectivity k%")
	for _, e := range s.Errs {
		header = append(header, fmt.Sprintf("err=%g", e))
	}
	t := NewTable(s.Name+": sampling ratio vs periodical (lower is better)", header...)
	for ki, k := range s.Ks {
		cells := make([]any, 0, len(s.Errs)+1)
		cells = append(cells, fmt.Sprintf("%g", k))
		for ei := range s.Errs {
			cells = append(cells, s.Cells[ki][ei].Ratio)
		}
		t.AddRow(cells...)
	}
	return t.String()
}

// MisdetectTable renders the measured mis-detection grid (Figure 7's
// y-axis), to be compared against each column's error allowance.
func (s *SweepResult) MisdetectTable() string {
	header := make([]string, 0, len(s.Errs)+1)
	header = append(header, "selectivity k%")
	for _, e := range s.Errs {
		header = append(header, fmt.Sprintf("err=%g", e))
	}
	t := NewTable(s.Name+": measured mis-detection rate (target: column err)", header...)
	for ki, k := range s.Ks {
		cells := make([]any, 0, len(s.Errs)+1)
		cells = append(cells, fmt.Sprintf("%g", k))
		for ei := range s.Errs {
			cells = append(cells, s.Cells[ki][ei].Misdetect)
		}
		t.AddRow(cells...)
	}
	return t.String()
}

// MaxSaving reports the largest observed cost saving (1 − min ratio) across
// the grid — the paper's "up to 90%" headline for its workloads.
func (s *SweepResult) MaxSaving() float64 {
	best := 0.0
	for ki := range s.Cells {
		for ei := range s.Cells[ki] {
			if saving := 1 - s.Cells[ki][ei].Ratio; saving > best {
				best = saving
			}
		}
	}
	return best
}

// RunFig5a generates the network workload and sweeps it (per-VM traffic
// difference tasks, Id = 15 s).
func RunFig5a(p Preset) (*SweepResult, error) {
	w, err := GenNetwork(p.NetServers, p.NetVMsPerServer, p.NetWindows, p.NetFlowsPerWindow, p.Seed)
	if err != nil {
		return nil, err
	}
	return RunSweep("fig5a-network", w.Rho, p)
}

// RunFig5b generates the system workload and sweeps it (per-VM metric
// tasks, Id = 5 s).
func RunFig5b(p Preset) (*SweepResult, error) {
	series, err := GenSystem(p.SysNodes, p.SysMetricsPerNode, p.SysSteps, p.Seed+100)
	if err != nil {
		return nil, err
	}
	return RunSweep("fig5b-system", series, p)
}

// RunFig5c generates the application workload and sweeps it (per-object
// access-rate tasks, Id = 1 s).
func RunFig5c(p Preset) (*SweepResult, error) {
	series, err := GenApp(p.AppServers, p.AppObjects, p.AppTopObjects, p.AppSteps, p.Seed+200)
	if err != nil {
		return nil, err
	}
	return RunSweep("fig5c-application", series, p)
}
