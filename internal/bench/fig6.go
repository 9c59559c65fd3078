package bench

import (
	"fmt"

	"volley/internal/cost"
	"volley/internal/stats"
)

// Fig6Result holds the Dom0 CPU-utilization distributions of the network
// monitoring experiment at increasing error allowances (Figure 6's box
// plots). Err = 0 is periodical sampling — the paper's 20–34% baseline.
type Fig6Result struct {
	Errs  []float64
	Boxes []stats.BoxSummary
	// Selectivity is the k used for the per-VM thresholds.
	Selectivity float64
}

// RunFig6 replays the network workload per VM at each error allowance,
// marks which windows each VM's monitor sampled, and feeds the per-server
// inspected-packet volumes through the calibrated CPU model. Per-VM
// thresholds are derived once and shared by every allowance level; the
// independent allowance levels fan across the preset's worker pool.
func RunFig6(p Preset, selectivity float64) (*Fig6Result, error) {
	w, err := GenNetwork(p.NetServers, p.NetVMsPerServer, p.NetWindows, p.NetFlowsPerWindow, p.Seed)
	if err != nil {
		return nil, err
	}
	model, err := cost.Calibrate(w.MeanServerPackets(), 27)
	if err != nil {
		return nil, err
	}

	eng := p.engine()
	cache, err := newThresholdCache(eng, w.Rho, []float64{selectivity})
	if err != nil {
		return nil, fmt.Errorf("bench: fig6: %w", err)
	}
	thresholds, err := cache.forK(selectivity)
	if err != nil {
		return nil, fmt.Errorf("bench: fig6: %w", err)
	}

	errs := append([]float64{0}, p.Errs...)
	out := &Fig6Result{Errs: errs, Selectivity: selectivity, Boxes: make([]stats.BoxSummary, len(errs))}
	windows := w.Windows()
	vms := w.NumVMs()

	err = eng.ForEach(len(errs), func(errIdx int) error {
		errAllow := errs[errIdx]
		// inspected[server][window] accumulates packets of VMs whose
		// monitor sampled that window.
		inspected := make([][]int, p.NetServers)
		for s := range inspected {
			inspected[s] = make([]int, windows)
		}
		for vm := 0; vm < vms; vm++ {
			r, err := ReplaySeries(w.Rho[vm], ReplayConfig{
				Threshold:   thresholds[vm],
				Err:         errAllow,
				MaxInterval: p.MaxInterval,
				Patience:    p.Patience,
				KeepMask:    true,
			})
			if err != nil {
				return fmt.Errorf("bench: fig6 vm %d: %w", vm, err)
			}
			server := w.ServerOf(vm)
			for step, sampled := range r.Sampled {
				if sampled {
					inspected[server][step] += w.Packets[vm][step]
				}
			}
		}
		utilization := make([]float64, 0, p.NetServers*windows)
		for s := 0; s < p.NetServers; s++ {
			for step := 0; step < windows; step++ {
				utilization = append(utilization, model.WindowPct(inspected[s][step]))
			}
		}
		out.Boxes[errIdx] = stats.Summarize(utilization)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Table renders the box-plot grid.
func (f *Fig6Result) Table() string {
	t := NewTable(
		fmt.Sprintf("fig6: Dom0 CPU utilization %% (network monitoring, k=%g%%)", f.Selectivity),
		"err", "q1", "median", "q3", "whisker-lo", "whisker-hi", "mean")
	for i, e := range f.Errs {
		b := f.Boxes[i]
		t.AddRow(fmt.Sprintf("%g", e), b.Q1, b.Med, b.Q3, b.LowWhisker, b.HighWhisker, b.Mean)
	}
	return t.String()
}

// BaselineMedian reports the median utilization at err = 0 (periodical
// sampling) and the median at the largest allowance, the paper's
// "20–34% → ~5%" headline comparison.
func (f *Fig6Result) BaselineMedian() (periodical, largestErr float64) {
	if len(f.Boxes) == 0 {
		return 0, 0
	}
	return f.Boxes[0].Med, f.Boxes[len(f.Boxes)-1].Med
}
