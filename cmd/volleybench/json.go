package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"volley/internal/bench"
)

// benchEntry is one figure's headline metrics. Sampling ratio and
// mis-detection rate are pointers because some figures have no single
// headline number (fig6 reports a CPU distribution) and pooled
// mis-detection is NaN when a cell has no alerts — encoding/json cannot
// represent NaN, so those fields are simply omitted.
type benchEntry struct {
	Figure        string   `json:"figure"`
	WallClockNS   int64    `json:"wall_clock_ns"`
	SamplingRatio *float64 `json:"sampling_ratio,omitempty"`
	MisdetectRate *float64 `json:"misdetect_rate,omitempty"`
}

// benchReport is the schema of BENCH_quick.json: enough to track both the
// paper-facing metrics (does adaptive sampling still save what it saved?)
// and the engine's wall clock across commits.
type benchReport struct {
	Preset           string       `json:"preset"`
	Procs            int          `json:"procs"`
	GoMaxProcs       int          `json:"gomaxprocs"`
	Figures          []benchEntry `json:"figures"`
	TotalWallClockNS int64        `json:"total_wall_clock_ns"`
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

// writeBenchJSON runs the full figure suite once under preset p, timing
// each figure, and writes the headline metrics to path.
func writeBenchJSON(p bench.Preset, presetName, path string, out *os.File) error {
	report := benchReport{
		Preset:     presetName,
		Procs:      p.Procs,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	timed := func(figure string, run func() (ratio, misdetect *float64, err error)) error {
		start := time.Now()
		ratio, misdetect, err := run()
		if err != nil {
			return fmt.Errorf("%s: %w", figure, err)
		}
		ns := time.Since(start).Nanoseconds()
		report.Figures = append(report.Figures, benchEntry{
			Figure:        figure,
			WallClockNS:   ns,
			SamplingRatio: ratio,
			MisdetectRate: misdetect,
		})
		report.TotalWallClockNS += ns
		return nil
	}

	if err := timed("fig1", func() (*float64, *float64, error) {
		r, err := bench.RunFig1(p)
		if err != nil {
			return nil, nil, err
		}
		ratio := finite(float64(r.SchemeCSamples) / float64(r.SchemeASamples))
		var misdetect *float64
		if r.Alerts > 0 {
			misdetect = finite(float64(r.SchemeCMissed) / float64(r.Alerts))
		}
		return ratio, misdetect, nil
	}); err != nil {
		return err
	}
	for _, sweep := range []struct {
		figure string
		run    func(bench.Preset) (*bench.SweepResult, error)
	}{
		{"fig5a", bench.RunFig5a},
		{"fig5b", bench.RunFig5b},
		{"fig5c", bench.RunFig5c},
		{"fig7", runFig7},
	} {
		if err := timed(sweep.figure, func() (*float64, *float64, error) {
			r, err := sweep.run(p)
			if err != nil {
				return nil, nil, err
			}
			ratio, misdetect := sweepHeadline(r)
			return ratio, misdetect, nil
		}); err != nil {
			return err
		}
	}
	if err := timed("fig6", func() (*float64, *float64, error) {
		_, err := bench.RunFig6(p, 1)
		return nil, nil, err
	}); err != nil {
		return err
	}
	if err := timed("fig8", func() (*float64, *float64, error) {
		r, err := bench.RunFig8(p)
		if err != nil {
			return nil, nil, err
		}
		var sum float64
		for _, v := range r.AdaptRatio {
			sum += v
		}
		var ratio *float64
		if len(r.AdaptRatio) > 0 {
			ratio = finite(sum / float64(len(r.AdaptRatio)))
		}
		return ratio, nil, nil
	}); err != nil {
		return err
	}
	if err := timed("baselines", func() (*float64, *float64, error) {
		r, err := bench.RunBaselines(p, 1, 0.01)
		if err != nil {
			return nil, nil, err
		}
		for _, row := range r.Rows {
			if strings.HasPrefix(row.Strategy, "volley") {
				return finite(row.Ratio), finite(row.Misdetect), nil
			}
		}
		return nil, nil, nil
	}); err != nil {
		return err
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %d figures to %s (total %s)\n",
		len(report.Figures), path, time.Duration(report.TotalWallClockNS))
	return nil
}
