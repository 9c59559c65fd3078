package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"volley/internal/bench"
)

// benchEntry is one figure's headline metrics. Sampling ratio and
// mis-detection rate are pointers because pooled mis-detection is NaN when
// a cell has no alerts and fig8 has no accuracy axis — encoding/json cannot
// represent NaN, so those fields are simply omitted.
type benchEntry struct {
	Figure        string   `json:"figure"`
	SamplingRatio *float64 `json:"sampling_ratio,omitempty"`
	MisdetectRate *float64 `json:"misdetect_rate,omitempty"`
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

// sweepHeadline pools a sweep grid into one (ratio, misdetect) pair:
// cells are averaged in index order, NaN mis-detection cells (no alerts)
// are skipped.
func sweepHeadline(r *bench.SweepResult) (ratio, misdetect *float64) {
	var ratioSum, misSum float64
	var cells, misCells int
	for _, row := range r.Cells {
		for _, c := range row {
			ratioSum += c.Ratio
			cells++
			if c.Misdetect == c.Misdetect {
				misSum += c.Misdetect
				misCells++
			}
		}
	}
	if cells > 0 {
		ratio = finite(ratioSum / float64(cells))
	}
	if misCells > 0 {
		misdetect = finite(misSum / float64(misCells))
	}
	return ratio, misdetect
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
		report.Figures = append(report.Figures, benchEntry{figure, ratio, misdetect})
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

	// fig7 is the accuracy view of fig5b's sweep: one run, two entries.
	for _, sweep := range []struct {
		run     func(bench.Preset) (*bench.SweepResult, error)
		figures []string
	}{
		{bench.RunFig5a, []string{"fig5a"}},
		{bench.RunFig5b, []string{"fig5b", "fig7"}},
		{bench.RunFig5c, []string{"fig5c"}},
	} {
		r, err := sweep.run(p)
		if err != nil {
			return fmt.Errorf("%s: %w", sweep.figures[0], err)
		}
		ratio, misdetect := sweepHeadline(r)
		for _, figure := range sweep.figures {
			add(figure, ratio, misdetect)
		}
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
