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
// Thresholds are derived once per series and reused by every strategy;
// each strategy's per-series scores fan across the preset's worker pool and
// are pooled in index order, episode rates included.
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
	volley, err := replayPooled(eng, series, thresholds, ReplayConfig{
		Err:         errAllow,
		MaxInterval: p.MaxInterval,
		Patience:    p.Patience,
	})
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, baselineRow("volley (adaptive)", volley))

	fixedInterval := int(math.Round(1 / volley.Ratio))
	if fixedInterval < 1 {
		fixedInterval = 1
	}
	fixed, err := poolEach(eng, len(series), func(idx int) (task.Accuracy, error) {
		return scoreSchedule(series[idx], thresholds[idx], func(i int) bool { return i%fixedInterval == 0 }), nil
	})
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, baselineRow(fmt.Sprintf("periodical (every %d·Id)", fixedInterval), fixed))

	prob := volley.Ratio
	random, err := poolEach(eng, len(series), func(idx int) (task.Accuracy, error) {
		// Per-series RNG seeded by the series index, so the draw sequence
		// is independent of which worker replays which series.
		rng := rand.New(rand.NewSource(p.Seed + 701 + int64(idx)))
		return scoreSchedule(series[idx], thresholds[idx], func(int) bool { return rng.Float64() < prob }), nil
	})
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, baselineRow(fmt.Sprintf("uniform random (p=%.3f)", prob), random))
	return out, nil
}

func baselineRow(strategy string, r PooledResult) BaselineRow {
	return BaselineRow{Strategy: strategy, Ratio: r.Ratio, Misdetect: r.Misdetect, Episodes: r.EpisodeDetect}
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
		// pool.
		r, err := poolEach(eng, len(series), func(si int) (task.Accuracy, error) {
			s := series[si]
			agg := movingMean(s, window)
			threshold, err := task.ThresholdForSelectivity(agg, k)
			if err != nil {
				return task.Accuracy{}, err
			}
			sampler, err := core.NewAggregateSampler(core.Config{
				Threshold:   threshold,
				Err:         errAllow,
				MaxInterval: p.MaxInterval,
				Patience:    p.Patience,
			}, core.AggregateMean, window)
			if err != nil {
				return task.Accuracy{}, err
			}
			next, interval := 0, 1
			var acc task.Accuracy
			for i := range s {
				sampled := i == next
				if sampled {
					iv, err := sampler.Observe(s[i], interval)
					if err != nil {
						return task.Accuracy{}, err
					}
					interval = iv
					next = i + iv
				}
				acc.Record(agg[i] > threshold, sampled)
			}
			return acc, nil
		})
		if err != nil {
			return nil, err
		}
		row := AblationRow{Label: fmt.Sprintf("window=%d·Id", window), Ratio: r.Ratio, Misdetect: r.Misdetect}
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
