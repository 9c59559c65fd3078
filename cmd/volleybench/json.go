package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"volley/internal/bench"
)

// benchEntry is one figure's headline metrics; a Fig. 5 sweep has a row per
// cell instead. Sampling ratio and mis-detection rate are pointers because
// pooled mis-detection is NaN when there are no alerts and fig8 has no
// accuracy axis — encoding/json cannot represent NaN, so those fields are
// simply omitted.
type benchEntry struct {
	Figure        string      `json:"figure"`
	SamplingRatio *float64    `json:"sampling_ratio,omitempty"`
	MisdetectRate *float64    `json:"misdetect_rate,omitempty"`
	Cells         []sweepCell `json:"cells,omitempty"`
}

// sweepCell is one (k, err) cell of a sweep: the selectivity k (percent) the
// thresholds were drawn at, the allowance err every sampler ran with, and
// what the replay of all the workload's series did — samples over ticks,
// missed alert steps over alert steps (absent without alerts), and the
// alert steps themselves.
type sweepCell struct {
	K             float64  `json:"k"`
	Err           float64  `json:"err"`
	SamplingRatio *float64 `json:"sampling_ratio,omitempty"`
	Misdetect     *float64 `json:"misdetect,omitempty"`
	Alerts        int      `json:"alerts"`
}

// benchReport is the schema of BENCH_quick.json: the paper-facing metrics
// (does adaptive sampling still save what it saved, at the accuracy it
// had?) and nothing that depends on the host or the worker count, so the
// committed file is a pure function of the source.
type benchReport struct {
	Preset  string       `json:"preset"`
	Figures []benchEntry `json:"figures"`
}

// finite returns a pointer to v when v is a representable JSON number.
func finite(v float64) *float64 {
	if v != v || v > 1e308 || v < -1e308 {
		return nil
	}
	return &v
}

// sweepCells lists a sweep's cells, k by k and err by err within each k.
func sweepCells(r *bench.SweepResult) []sweepCell {
	var cells []sweepCell
	for i, row := range r.Cells {
		for j, c := range row {
			cells = append(cells, sweepCell{
				K: r.Ks[i], Err: r.Errs[j],
				SamplingRatio: finite(c.Ratio), Misdetect: finite(c.Misdetect), Alerts: c.Alerts,
			})
		}
	}
	return cells
}

// writeJSONFile writes v, indented and newline-terminated, to path.
func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeBenchJSON runs every figure that has a headline number once under
// preset p and writes those numbers to path. fig6 (a CPU distribution) has
// none and is left to -fig 6.
func writeBenchJSON(p bench.Preset, presetName, path string, out *os.File) error {
	report := benchReport{Preset: presetName}
	add := func(figure string, ratio, misdetect *float64) {
		report.Figures = append(report.Figures, benchEntry{Figure: figure, SamplingRatio: ratio, MisdetectRate: misdetect})
	}

	fig1, err := bench.RunFig1(p)
	if err != nil {
		return fmt.Errorf("fig1: %w", err)
	}
	var fig1Missed *float64
	if fig1.Alerts > 0 {
		fig1Missed = finite(float64(fig1.SchemeCMissed) / float64(fig1.Alerts))
	}
	add("fig1", finite(float64(fig1.SchemeCSamples)/float64(fig1.SchemeASamples)), fig1Missed)

	// Each sweep cell by cell, so that a cell whose misdetection exceeds its
	// allowance shows (TestOverAllowanceCellsDoNotGrow). fig7 is fig5b's
	// sweep read on the accuracy axis, which its cells carry.
	for _, sweep := range []struct {
		run    func(bench.Preset) (*bench.SweepResult, error)
		figure string
	}{
		{bench.RunFig5a, "fig5a"},
		{bench.RunFig5b, "fig5b"},
		{bench.RunFig5c, "fig5c"},
	} {
		r, err := sweep.run(p)
		if err != nil {
			return fmt.Errorf("%s: %w", sweep.figure, err)
		}
		report.Figures = append(report.Figures, benchEntry{Figure: sweep.figure, Cells: sweepCells(r)})
	}

	fig8, err := bench.RunFig8(p)
	if err != nil {
		return fmt.Errorf("fig8: %w", err)
	}
	var fig8Ratio *float64
	if n := len(fig8.AdaptRatio); n > 0 {
		var sum float64
		for _, v := range fig8.AdaptRatio {
			sum += v
		}
		fig8Ratio = finite(sum / float64(n))
	}
	add("fig8", fig8Ratio, nil)

	baselines, err := bench.RunBaselines(p, 1, 0.01)
	if err != nil {
		return fmt.Errorf("baselines: %w", err)
	}
	for _, row := range baselines.Rows {
		if strings.HasPrefix(row.Strategy, "volley") {
			add("baselines", finite(row.Ratio), finite(row.Misdetect))
			break
		}
	}

	if err := writeJSONFile(path, report); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %d figures to %s\n", len(report.Figures), path)
	return nil
}
