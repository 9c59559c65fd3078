package bench

import (
	"fmt"
	"math"
	"math/rand"

	"volley/internal/core"
	"volley/internal/task"
)

// BaselineRow is one sampling strategy's outcome at (approximately) equal
// sampling cost.
type BaselineRow struct {
	Strategy  string
	Ratio     float64
	Misdetect float64
	Episodes  float64 // episode detection rate
}

// BaselineResult compares Volley against periodical and uniform-random
// sampling at the same budget — the comparison implied by the related-work
// discussion (random sampling spends the same budget blindly; periodical
// spends it rigidly; Volley spends it where violations are likely).
type BaselineResult struct {
	Err  float64
	K    float64
	Rows []BaselineRow
}

// Table renders the comparison.
func (b *BaselineResult) Table() string {
	t := NewTable(
		fmt.Sprintf("baselines at equal budget (network workload, k=%g%%, volley err=%g)", b.K, b.Err),
		"strategy", "sampling ratio", "mis-detection", "episode detection")
	for _, r := range b.Rows {
		t.AddRow(r.Strategy, r.Ratio, r.Misdetect, r.Episodes)
	}
	return t.String()
}

// RunBaselines replays the network workload under Volley, then gives the
// two baselines the budget Volley actually used: periodical sampling at the
// nearest fixed interval and random sampling with matching probability.
// Thresholds are derived once per series from a shared sorted copy and
// reused by every strategy; each strategy's per-series replays fan across
// the preset's worker pool.
func RunBaselines(p Preset, selectivity, errAllow float64) (*BaselineResult, error) {
	w, err := GenNetwork(p.NetServers, p.NetVMsPerServer, p.NetWindows, p.NetFlowsPerWindow, p.Seed+700)
	if err != nil {
		return nil, err
	}
	series := w.Rho
	eng := p.engine()
	cache, err := newThresholdCache(eng, series, []float64{selectivity})
	if err != nil {
		return nil, err
	}
	thresholds, err := cache.forK(selectivity)
	if err != nil {
		return nil, err
	}

	out := &BaselineResult{Err: errAllow, K: selectivity}

	// Volley first, to establish the budget.
	volley, err := replayManyThresholds(eng, series, thresholds, ReplayConfig{
		Err:         errAllow,
		MaxInterval: p.MaxInterval,
		Patience:    p.Patience,
	})
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, BaselineRow{
		Strategy:  "volley (adaptive)",
		Ratio:     volley.Ratio,
		Misdetect: volley.Misdetect,
		Episodes:  math.NaN(),
	})

	fixedInterval := int(math.Round(1 / volley.Ratio))
	if fixedInterval < 1 {
		fixedInterval = 1
	}
	fixed, err := replayManyWith(eng, series, thresholds, func(_ int, s []float64, threshold float64) (task.Accuracy, int, error) {
		var acc task.Accuracy
		samples := 0
		for i, v := range s {
			sampled := i%fixedInterval == 0
			if sampled {
				samples++
			}
			acc.Record(v > threshold, sampled)
		}
		return acc, samples, nil
	})
	if err != nil {
		return nil, err
	}
	fixed.Strategy = fmt.Sprintf("periodical (every %d·Id)", fixedInterval)
	out.Rows = append(out.Rows, fixed)

	prob := volley.Ratio
	random, err := replayManyWith(eng, series, thresholds, func(idx int, s []float64, threshold float64) (task.Accuracy, int, error) {
		// Per-series RNG seeded by the series index, so the draw sequence
		// is independent of which worker replays which series.
		rng := rand.New(rand.NewSource(p.Seed + 701 + int64(idx)))
		var acc task.Accuracy
		samples := 0
		for _, v := range s {
			sampled := rng.Float64() < prob
			if sampled {
				samples++
			}
			acc.Record(v > threshold, sampled)
		}
		return acc, samples, nil
	})
	if err != nil {
		return nil, err
	}
	random.Strategy = fmt.Sprintf("uniform random (p=%.3f)", prob)
	out.Rows = append(out.Rows, random)

	// Fill Volley's episode-detection rate via a second accounting pass so
	// all rows report the same metric.
	volleyRow, err := replayManyWith(eng, series, thresholds, func(_ int, s []float64, threshold float64) (task.Accuracy, int, error) {
		r, err := ReplaySeries(s, ReplayConfig{
			Threshold:   threshold,
			Err:         errAllow,
			MaxInterval: p.MaxInterval,
			Patience:    p.Patience,
			KeepMask:    true,
		})
		if err != nil {
			return task.Accuracy{}, 0, err
		}
		var acc task.Accuracy
		for i, v := range s {
			acc.Record(v > threshold, r.Sampled[i])
		}
		return acc, r.Samples, nil
	})
	if err != nil {
		return nil, err
	}
	out.Rows[0].Episodes = volleyRow.Episodes
	return out, nil
}

// replayManyWith pools a custom per-series sampling strategy across the
// workload against pre-derived thresholds, fanning series across the
// engine. The strategy receives the series index so any per-series state
// (e.g. an RNG) can be derived deterministically regardless of which
// worker runs it; per-series counts land in indexed slots and are reduced
// in index order.
func replayManyWith(eng *Engine, series [][]float64, thresholds []float64,
	strategy func(idx int, s []float64, threshold float64) (task.Accuracy, int, error)) (BaselineRow, error) {

	type partial struct {
		samples, steps, alerts, missed int
		rate                           float64
		rated                          bool
	}
	parts := make([]partial, len(series))
	err := eng.ForEach(len(series), func(i int) error {
		acc, samples, err := strategy(i, series[i], thresholds[i])
		if err != nil {
			return fmt.Errorf("bench: series %d: %w", i, err)
		}
		pp := partial{samples: samples, steps: len(series[i]), alerts: acc.Alerts(), missed: acc.Missed()}
		if rate := acc.EpisodeDetectionRate(); !math.IsNaN(rate) {
			pp.rate, pp.rated = rate, true
		}
		parts[i] = pp
		return nil
	})
	if err != nil {
		return BaselineRow{}, err
	}
	var totalSamples, totalSteps, alerts, missed, rated int
	var rateSum float64
	for _, pp := range parts {
		totalSamples += pp.samples
		totalSteps += pp.steps
		alerts += pp.alerts
		missed += pp.missed
		if pp.rated {
			rateSum += pp.rate
			rated++
		}
	}
	row := BaselineRow{
		Ratio:     float64(totalSamples) / float64(totalSteps),
		Misdetect: math.NaN(),
		Episodes:  math.NaN(),
	}
	if alerts > 0 {
		row.Misdetect = float64(missed) / float64(alerts)
	}
	if rated > 0 {
		row.Episodes = rateSum / float64(rated)
	}
	return row, nil
}

// RunAblationAggregation measures the aggregation-window extension
// (DESIGN.md §4, the paper's "tasks with aggregation time window" future
// work): monitoring the moving mean over windows of increasing length on
// the system workload. Ground truth is the windowed-mean series itself.
func RunAblationAggregation(p Preset) (*AblationResult, error) {
	series, err := ablationSeries(p)
	if err != nil {
		return nil, err
	}
	const k, errAllow = 1.0, 0.01
	eng := p.engine()
	out := &AblationResult{Name: "aggregation window (extension; 1 = the paper's instantaneous tasks)"}
	for _, window := range []int{1, 4, 16} {
		// The windowed-mean ground truth differs per window length, so
		// thresholds cannot be cached across windows; the per-series
		// replays within one window are independent and fan across the
		// pool, each writing its own partial slot.
		type partial struct {
			samples, steps, alerts, missed int
		}
		parts := make([]partial, len(series))
		err := eng.ForEach(len(series), func(si int) error {
			s := series[si]
			agg := movingMean(s, window)
			threshold, err := task.ThresholdForSelectivity(agg, k)
			if err != nil {
				return err
			}
			sampler, err := core.NewAggregateSampler(core.Config{
				Threshold:   threshold,
				Err:         errAllow,
				MaxInterval: p.MaxInterval,
				Patience:    p.Patience,
			}, core.AggregateMean, window)
			if err != nil {
				return err
			}
			next, interval := 0, 1
			var acc task.Accuracy
			samples := 0
			for i := range s {
				sampled := i == next
				if sampled {
					samples++
					iv, err := sampler.Observe(s[i], interval)
					if err != nil {
						return err
					}
					interval = iv
					next = i + iv
				}
				acc.Record(agg[i] > threshold, sampled)
			}
			parts[si] = partial{samples: samples, steps: len(s), alerts: acc.Alerts(), missed: acc.Missed()}
			return nil
		})
		if err != nil {
			return nil, err
		}
		var totalSamples, totalSteps, alerts, missed int
		for _, pp := range parts {
			totalSamples += pp.samples
			totalSteps += pp.steps
			alerts += pp.alerts
			missed += pp.missed
		}
		row := AblationRow{
			Label:     fmt.Sprintf("window=%d·Id", window),
			Ratio:     float64(totalSamples) / float64(totalSteps),
			Misdetect: math.NaN(),
		}
		if alerts > 0 {
			row.Misdetect = float64(missed) / float64(alerts)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// movingMean computes the trailing moving mean with a warming prefix.
func movingMean(s []float64, window int) []float64 {
	out := make([]float64, len(s))
	var sum float64
	for i, v := range s {
		sum += v
		n := window
		if i+1 < window {
			n = i + 1
		} else if i >= window {
			sum -= s[i-window]
		}
		out[i] = sum / float64(n)
	}
	return out
}
