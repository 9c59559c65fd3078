package bench

import (
	"fmt"
	"time"

	"volley/internal/coord"
	"volley/internal/core"
	"volley/internal/host"
	"volley/internal/monitor"
	"volley/internal/stats"
	"volley/internal/transport"
)

// Fig8Result compares the error-allowance distribution schemes as the
// local violation-rate distribution across monitors becomes increasingly
// skewed (Figure 8).
type Fig8Result struct {
	Skews []float64
	// AdaptRatio and EvenRatio are total sampling ratios (lower is
	// better), indexed by skew.
	AdaptRatio []float64
	EvenRatio  []float64
	// GlobalAlerts counts confirmed global violations per run (sanity
	// signal that the task does fire), indexed by skew, for the adaptive
	// scheme.
	GlobalAlerts []uint64
}

// RunFig8 builds, per skew level, a distributed task over the network
// workload's most active VMs: local thresholds are set so local violation
// rates follow a Zipf distribution with that skew ("initially … the same
// local violation rate, … then gradually change the local violation rate
// distribution to a Zipf distribution"), and the full monitor/coordinator
// stack runs over an in-memory transport for each scheme.
func RunFig8(p Preset) (*Fig8Result, error) {
	w, err := GenNetworkStationary(p.NetServers, p.NetVMsPerServer, p.NetWindows, p.NetFlowsPerWindow, p.Seed+300)
	if err != nil {
		return nil, err
	}
	if w.NumVMs() < p.Fig8Monitors {
		return nil, fmt.Errorf("bench: fig8 needs %d VMs, workload has %d", p.Fig8Monitors, w.NumVMs())
	}
	steps := p.Fig8Steps
	if steps > w.Windows() {
		steps = w.Windows()
	}
	series := w.Rho[:p.Fig8Monitors]

	// One threshold backend per series serves every skew level's
	// derivation; the per-(skew, scheme) distributed runs are independent
	// and fan across the pool, each writing its own slot. The streaming
	// backend's sketch grid is sized on the union of the selectivities the
	// skew levels will derive, so every asked k hits a marker exactly.
	eng := p.engine()
	union, err := fig8KUnion(len(series), p.Fig8BaseK, p.Fig8Skews)
	if err != nil {
		return nil, fmt.Errorf("bench: fig8: %w", err)
	}
	cache, err := newThresholdCache(eng, series, union)
	if err != nil {
		return nil, fmt.Errorf("bench: fig8: %w", err)
	}
	thresholdsBySkew := make([][]float64, len(p.Fig8Skews))
	for si, skew := range p.Fig8Skews {
		thresholds, err := fig8Thresholds(cache, p.Fig8BaseK, skew)
		if err != nil {
			return nil, err
		}
		thresholdsBySkew[si] = thresholds
	}

	out := &Fig8Result{
		Skews:        p.Fig8Skews,
		AdaptRatio:   make([]float64, len(p.Fig8Skews)),
		EvenRatio:    make([]float64, len(p.Fig8Skews)),
		GlobalAlerts: make([]uint64, len(p.Fig8Skews)),
	}
	err = eng.ForEach(2*len(p.Fig8Skews), func(idx int) error {
		si, even := idx/2, idx%2 == 1
		skew := p.Fig8Skews[si]
		if even {
			ratio, _, err := runHosted(series, thresholdsBySkew[si], steps, p, coord.SchemeEven)
			if err != nil {
				return fmt.Errorf("bench: fig8 even skew=%v: %w", skew, err)
			}
			out.EvenRatio[si] = ratio
			return nil
		}
		ratio, cs, err := runHosted(series, thresholdsBySkew[si], steps, p, coord.SchemeAdaptive)
		if err != nil {
			return fmt.Errorf("bench: fig8 adapt skew=%v: %w", skew, err)
		}
		out.AdaptRatio[si] = ratio
		out.GlobalAlerts[si] = cs.GlobalAlerts
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fig8Ks derives the per-monitor selectivities for one skew level: monitor
// i's local violation rate is proportional to Zipf weight i, with the mean
// rate equal to baseK percent, clamped to the percentile domain.
func fig8Ks(n int, baseK, skew float64) ([]float64, error) {
	weights, err := stats.ZipfWeights(n, skew)
	if err != nil {
		return nil, err
	}
	ks := make([]float64, n)
	for i := range ks {
		k := baseK * float64(n) * weights[i]
		// Keep every selectivity inside the percentile domain.
		if k < 0.05 {
			k = 0.05
		}
		if k > 50 {
			k = 50
		}
		ks[i] = k
	}
	return ks, nil
}

// fig8KUnion collects every selectivity any skew level will ask of the
// threshold cache (duplicates are fine; the sketch dedups its grid).
func fig8KUnion(n int, baseK float64, skews []float64) ([]float64, error) {
	var union []float64
	for _, skew := range skews {
		ks, err := fig8Ks(n, baseK, skew)
		if err != nil {
			return nil, err
		}
		union = append(union, ks...)
	}
	return union, nil
}

// fig8Thresholds assigns per-monitor local thresholds for one skew level
// from the shared threshold cache, so sweeping skew levels costs no
// additional per-series passes.
func fig8Thresholds(cache *thresholdCache, baseK, skew float64) ([]float64, error) {
	ks, err := fig8Ks(cache.n(), baseK, skew)
	if err != nil {
		return nil, err
	}
	thresholds := make([]float64, len(ks))
	for i, k := range ks {
		t, err := cache.forSeries(i, k)
		if err != nil {
			return nil, err
		}
		thresholds[i] = t
	}
	return thresholds, nil
}

// runHosted builds a distributed task over the series — one monitor per
// series with the given local thresholds, and a coordinator of the scheme —
// on an in-memory transport, hosts the monitors in one plan and drives it
// step by step with the coordinator's tick as the control step, as volleyd
// does. It reports the sampling ratio (samples over monitor-steps, poll
// samples included) and the coordinator's counters.
func runHosted(series [][]float64, thresholds []float64, steps int, p Preset, scheme coord.Scheme) (ratio float64, stats coord.Stats, err error) {
	n := len(series)
	net := transport.NewMemory()
	cursor := -1

	var globalThreshold float64
	monitorIDs := make([]string, n)
	for i, t := range thresholds {
		globalThreshold += t
		monitorIDs[i] = fmt.Sprintf("mon-%d", i)
	}

	coordinator, err := coord.New(coord.Config{
		ID:           "coordinator",
		Task:         "fig8",
		Threshold:    globalThreshold,
		Err:          p.Fig8Err,
		Monitors:     monitorIDs,
		Network:      net,
		Scheme:       scheme,
		UpdatePeriod: p.Fig8UpdatePeriod,
	})
	if err != nil {
		return 0, coord.Stats{}, err
	}

	monitors := make([]*monitor.Monitor, n)
	for i := range series {
		agent := monitor.AgentFunc(func() (float64, error) {
			if cursor < 0 {
				return 0, fmt.Errorf("bench: sample before first step")
			}
			return series[i][cursor], nil
		})
		m, err := monitor.New(monitor.Config{
			ID:    monitorIDs[i],
			Task:  "fig8",
			Agent: agent,
			Sampler: core.Config{
				Threshold:   thresholds[i],
				Err:         p.Fig8Err / float64(n),
				MaxInterval: p.MaxInterval,
				Patience:    p.Patience,
			},
			Network:     net,
			Coordinator: "coordinator",
			YieldEvery:  p.Fig8UpdatePeriod,
		})
		if err != nil {
			return 0, coord.Stats{}, err
		}
		monitors[i] = m
	}
	var set host.Set
	set.Put("fig8", host.Task{Mons: monitors})
	var plan host.Plan
	plan.Sync(&set)

	for step := 0; step < steps; step++ {
		cursor = step
		now := time.Duration(step) * time.Second
		coordinator.Tick(now)
		if _, err := plan.Tick(now); err != nil {
			return 0, coord.Stats{}, err
		}
	}

	var samples uint64
	for _, m := range monitors {
		st := m.Stats()
		samples += st.Samples + st.PollSamples
	}
	total := float64(n) * float64(steps)
	return float64(samples) / total, coordinator.Stats(), nil
}

// Table renders the scheme comparison.
func (f *Fig8Result) Table() string {
	t := NewTable("fig8: distributed coordination, sampling ratio vs periodical",
		"zipf skew", "adapt", "even", "adapt advantage", "global alerts (adapt)")
	for i, s := range f.Skews {
		adv := f.EvenRatio[i] - f.AdaptRatio[i]
		t.AddRow(fmt.Sprintf("%g", s), f.AdaptRatio[i], f.EvenRatio[i], adv, fmt.Sprintf("%d", f.GlobalAlerts[i]))
	}
	return t.String()
}
