package bench

import (
	"fmt"
	"math"

	"volley/internal/coord"
	"volley/internal/core"
	"volley/internal/stats"
	"volley/internal/task"
)

// AblationRow is one configuration's pooled outcome on the system workload.
type AblationRow struct {
	Label     string
	Ratio     float64
	Misdetect float64
}

// AblationResult is a labeled list of configurations and their outcomes.
type AblationResult struct {
	Name string
	Rows []AblationRow
}

// Table renders the ablation.
func (a *AblationResult) Table() string {
	t := NewTable("ablation: "+a.Name, "configuration", "sampling ratio", "mis-detection")
	for _, r := range a.Rows {
		t.AddRow(r.Label, r.Ratio, r.Misdetect)
	}
	return t.String()
}

// ablationSeries generates the shared workload for ablations (system-level:
// the middle ground between the smooth network lulls and bursty app load).
func ablationSeries(p Preset) ([][]float64, error) {
	return GenSystem(p.SysNodes, p.SysMetricsPerNode, p.SysSteps, p.Seed+500)
}

func runAblationConfigs(name string, p Preset, series [][]float64, k float64, configs []struct {
	Label string
	Cfg   ReplayConfig
}) (*AblationResult, error) {
	// Every configuration replays the same series at the same selectivity,
	// so thresholds are derived once (one sort per series) and shared; the
	// per-series replays of each configuration fan across the pool.
	eng := p.engine()
	cache, err := newThresholdCache(eng, series, []float64{k})
	if err != nil {
		return nil, fmt.Errorf("bench: ablation %s: %w", name, err)
	}
	thresholds, err := cache.forK(k)
	if err != nil {
		return nil, fmt.Errorf("bench: ablation %s: %w", name, err)
	}
	out := &AblationResult{Name: name}
	for _, c := range configs {
		r, err := replayPooled(eng, series, thresholds, c.Cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: ablation %s %q: %w", name, c.Label, err)
		}
		out.Rows = append(out.Rows, AblationRow{Label: c.Label, Ratio: r.Ratio, Misdetect: r.Misdetect})
	}
	return out, nil
}

// RunAblationSlack sweeps the slack ratio γ and patience p around the
// paper's (0.2, 20).
func RunAblationSlack(p Preset) (*AblationResult, error) {
	series, err := ablationSeries(p)
	if err != nil {
		return nil, err
	}
	const k, errAllow = 1.0, 0.01
	var configs []struct {
		Label string
		Cfg   ReplayConfig
	}
	for _, slack := range []float64{0.05, 0.2, 0.5} {
		for _, patience := range []int{5, 20, 50} {
			configs = append(configs, struct {
				Label string
				Cfg   ReplayConfig
			}{
				Label: fmt.Sprintf("γ=%.2f p=%d", slack, patience),
				Cfg: ReplayConfig{
					Err: errAllow, MaxInterval: p.MaxInterval,
					Slack: slack, Patience: patience,
				},
			})
		}
	}
	return runAblationConfigs("slack-and-patience (paper: γ=0.2, p=20)", p, series, k, configs)
}

// RunAblationEstimator compares the paper's distribution-free Chebyshev
// bound against a Gaussian-assumption estimator.
func RunAblationEstimator(p Preset) (*AblationResult, error) {
	series, err := ablationSeries(p)
	if err != nil {
		return nil, err
	}
	const k, errAllow = 1.0, 0.01
	return runAblationConfigs("estimator (paper: chebyshev)", p, series, k, []struct {
		Label string
		Cfg   ReplayConfig
	}{
		{Label: "chebyshev (distribution-free)", Cfg: ReplayConfig{
			Err: errAllow, MaxInterval: p.MaxInterval, Patience: p.Patience,
			Estimator: core.ChebyshevEstimator{},
		}},
		{Label: "gaussian (assumes normal δ)", Cfg: ReplayConfig{
			Err: errAllow, MaxInterval: p.MaxInterval, Patience: p.Patience,
			Estimator: core.GaussianEstimator{},
		}},
	})
}

// RunAblationGrowth compares additive interval growth (the paper's AIMD-
// like rule) against multiplicative growth.
func RunAblationGrowth(p Preset) (*AblationResult, error) {
	series, err := ablationSeries(p)
	if err != nil {
		return nil, err
	}
	const k, errAllow = 1.0, 0.01
	return runAblationConfigs("interval growth (paper: additive)", p, series, k, []struct {
		Label string
		Cfg   ReplayConfig
	}{
		{Label: "additive (I←I+1)", Cfg: ReplayConfig{
			Err: errAllow, MaxInterval: p.MaxInterval, Patience: p.Patience,
			Growth: core.GrowthAdditive,
		}},
		{Label: "multiplicative (I←2I)", Cfg: ReplayConfig{
			Err: errAllow, MaxInterval: p.MaxInterval, Patience: p.Patience,
			Growth: core.GrowthMultiplicative,
		}},
	})
}

// RunAblationStatsWindow sweeps the δ-statistics restart window around the
// paper's 1000.
func RunAblationStatsWindow(p Preset) (*AblationResult, error) {
	series, err := ablationSeries(p)
	if err != nil {
		return nil, err
	}
	const k, errAllow = 1.0, 0.01
	var configs []struct {
		Label string
		Cfg   ReplayConfig
	}
	for _, window := range []int{100, 1000, -1} {
		label := fmt.Sprintf("window=%d", window)
		if window < 0 {
			label = "window=∞ (no restart)"
		}
		configs = append(configs, struct {
			Label string
			Cfg   ReplayConfig
		}{
			Label: label,
			Cfg: ReplayConfig{
				Err: errAllow, MaxInterval: p.MaxInterval, Patience: p.Patience,
				StatsWindow: window,
			},
		})
	}
	return runAblationConfigs("statistics restart window (paper: 1000)", p, series, k, configs)
}

// RunAblationCoordPeriod sweeps the coordinator's updating period around
// the paper's 1000·Id using the Fig. 8 machinery at a fixed skew.
func RunAblationCoordPeriod(p Preset) (*AblationResult, error) {
	w, err := GenNetworkStationary(p.NetServers, p.NetVMsPerServer, p.NetWindows, p.NetFlowsPerWindow, p.Seed+600)
	if err != nil {
		return nil, err
	}
	if w.NumVMs() < p.Fig8Monitors {
		return nil, fmt.Errorf("bench: ablation needs %d VMs, workload has %d", p.Fig8Monitors, w.NumVMs())
	}
	series := w.Rho[:p.Fig8Monitors]
	ks, err := fig8Ks(len(series), p.Fig8BaseK, 1.0)
	if err != nil {
		return nil, err
	}
	cache, err := newThresholdCache(p.engine(), series, ks)
	if err != nil {
		return nil, err
	}
	thresholds, err := fig8Thresholds(cache, p.Fig8BaseK, 1.0)
	if err != nil {
		return nil, err
	}
	steps := p.Fig8Steps
	if steps > w.Windows() {
		steps = w.Windows()
	}
	periods := []int{p.Fig8UpdatePeriod / 4, p.Fig8UpdatePeriod, p.Fig8UpdatePeriod * 4}
	for i, period := range periods {
		if period < 1 {
			periods[i] = 1
		}
	}
	// Each period's distributed run is independent: fan them across the
	// pool, one result slot per period.
	rows := make([]AblationRow, len(periods))
	err = p.engine().ForEach(len(periods), func(i int) error {
		pp := p
		pp.Fig8UpdatePeriod = periods[i]
		ratio, _, err := runHosted(series, thresholds, steps, pp, coord.SchemeAdaptive)
		if err != nil {
			return err
		}
		rows[i] = AblationRow{
			Label: fmt.Sprintf("period=%d·Id", periods[i]),
			Ratio: ratio,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &AblationResult{Name: "coordinator updating period (paper: 1000·Id)", Rows: rows}, nil
}

// RunAblationThresholdSplit compares ways of dividing a global threshold
// into local ones (Section II-A's decomposition design space): an even
// split against a split weighted by each monitor's historical mean. A
// better split produces fewer spurious local violations and therefore
// fewer global polls, without changing what the task detects.
func RunAblationThresholdSplit(p Preset) (*AblationResult, error) {
	w, err := GenNetworkStationary(p.NetServers, p.NetVMsPerServer, p.NetWindows, p.NetFlowsPerWindow, p.Seed+800)
	if err != nil {
		return nil, err
	}
	if w.NumVMs() < p.Fig8Monitors {
		return nil, fmt.Errorf("bench: ablation needs %d VMs, workload has %d", p.Fig8Monitors, w.NumVMs())
	}
	series := w.Rho[:p.Fig8Monitors]
	steps := p.Fig8Steps
	if steps > w.Windows() {
		steps = w.Windows()
	}

	// Global threshold: percentile of the summed series.
	sum := make([]float64, len(series[0]))
	for _, s := range series {
		for i, v := range s {
			sum[i] += v
		}
	}
	globalT, err := task.ThresholdForSelectivity(sum, 1)
	if err != nil {
		return nil, err
	}

	even, err := task.SplitEven(globalT, len(series))
	if err != nil {
		return nil, err
	}
	weights := make([]float64, len(series))
	for i, s := range series {
		weights[i] = stats.Mean(s)
	}
	weighted, err := task.SplitWeighted(globalT, weights)
	if err != nil {
		return nil, err
	}

	splits := []struct {
		label      string
		thresholds []float64
	}{
		{label: "even (T/n each)", thresholds: even},
		{label: "weighted by historical mean", thresholds: weighted},
	}
	rows := make([]AblationRow, len(splits))
	err = p.engine().ForEach(len(splits), func(i int) error {
		ratio, cs, err := runHosted(series, splits[i].thresholds, steps, p, coord.SchemeAdaptive)
		if err != nil {
			return err
		}
		rows[i] = AblationRow{
			Label:     fmt.Sprintf("%s: %d local violations, %d polls, %d alerts", splits[i].label, cs.LocalViolations, cs.Polls, cs.GlobalAlerts),
			Ratio:     ratio,
			Misdetect: math.NaN(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &AblationResult{Name: "threshold decomposition (Section II-A; split of the same global T)", Rows: rows}, nil
}
