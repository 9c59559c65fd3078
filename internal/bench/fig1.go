package bench

import (
	"fmt"

	"volley/internal/task"
)

// Fig1Result reproduces the motivating example (Figure 1): the same
// traffic-difference trace monitored by high-frequency periodical sampling
// (scheme A), low-frequency periodical sampling (scheme B) and
// violation-likelihood based dynamic sampling (scheme C).
type Fig1Result struct {
	// Threshold is the alert threshold on ρ.
	Threshold float64
	// Alerts is the ground-truth alert count (scheme A detects all).
	Alerts int
	// SchemeASamples, B, C are per-scheme sampling-operation counts.
	SchemeASamples int
	SchemeBSamples int
	SchemeCSamples int
	// SchemeBMissed / SchemeCMissed are missed alerts per scheme.
	SchemeBMissed int
	SchemeCMissed int
	// SchemeBInterval is scheme B's fixed interval in default intervals.
	SchemeBInterval int
}

// RunFig1 replays one attack-bearing VM trace under the three schemes.
func RunFig1(p Preset) (*Fig1Result, error) {
	w, err := GenNetwork(p.NetServers, p.NetVMsPerServer, p.NetWindows, p.NetFlowsPerWindow, p.Seed+400)
	if err != nil {
		return nil, err
	}
	// Pick the VM with the most violating windows at a 1% selectivity so
	// the trace actually contains a violation episode to miss.
	bestVM, bestAlerts := 0, -1
	thresholds := make([]float64, w.NumVMs())
	for vm := 0; vm < w.NumVMs(); vm++ {
		threshold, err := task.ThresholdForSelectivity(w.Rho[vm], 1)
		if err != nil {
			return nil, err
		}
		thresholds[vm] = threshold
		alerts := 0
		for _, v := range w.Rho[vm] {
			if v > threshold {
				alerts++
			}
		}
		if alerts > bestAlerts {
			bestVM, bestAlerts = vm, alerts
		}
	}
	series := w.Rho[bestVM]
	threshold := thresholds[bestVM]

	out := &Fig1Result{Threshold: threshold, Alerts: bestAlerts, SchemeBInterval: 4}

	// Scheme A: periodical at the default interval — sees everything.
	out.SchemeASamples = len(series)

	// Scheme B: periodical at 4× the default interval.
	accB := scoreSchedule(series, threshold, func(i int) bool { return i%out.SchemeBInterval == 0 })
	_, out.SchemeBSamples = accB.Steps()
	out.SchemeBMissed = accB.Missed()

	// Scheme C: Volley.
	r, err := ReplaySeries(series, ReplayConfig{
		Threshold:   threshold,
		Err:         0.01,
		MaxInterval: p.MaxInterval,
		Patience:    p.Patience,
	})
	if err != nil {
		return nil, err
	}
	out.SchemeCSamples = r.Samples
	out.SchemeCMissed = r.Missed
	return out, nil
}

// Table renders the comparison.
func (f *Fig1Result) Table() string {
	t := NewTable(
		fmt.Sprintf("fig1: motivating example (threshold %.1f, %d ground-truth alerts)", f.Threshold, f.Alerts),
		"scheme", "samples", "missed alerts")
	t.AddRow("A periodical Id", fmt.Sprintf("%d", f.SchemeASamples), "0")
	t.AddRow(fmt.Sprintf("B periodical %d·Id", f.SchemeBInterval),
		fmt.Sprintf("%d", f.SchemeBSamples), fmt.Sprintf("%d", f.SchemeBMissed))
	t.AddRow("C Volley dynamic", fmt.Sprintf("%d", f.SchemeCSamples), fmt.Sprintf("%d", f.SchemeCMissed))
	return t.String()
}
