package bench

import (
	"fmt"
	"math"

	"volley/internal/core"
	"volley/internal/task"
)

// ReplayConfig parameterizes an offline replay of the adaptation algorithm
// over a recorded value series.
type ReplayConfig struct {
	// Threshold is the task threshold T.
	Threshold float64
	// Err is the error allowance.
	Err float64
	// MaxInterval is Im in default intervals.
	MaxInterval int
	// Estimator, Growth, Slack, Patience and StatsWindow override the
	// sampler defaults when non-zero (for ablations).
	Estimator   core.Estimator
	Growth      core.Growth
	Slack       float64
	Patience    int
	StatsWindow int
	// KeepMask retains the per-step sampled mask in the result (needed by
	// the CPU-cost experiment).
	KeepMask bool
}

// ReplayResult summarizes one replay.
type ReplayResult struct {
	// Ratio is sampled steps over total steps (1.0 = periodical).
	Ratio float64
	// Misdetect is missed alerts over total alerts; NaN without alerts.
	Misdetect float64
	// EpisodeDetect is the fraction of violation episodes with at least
	// one sampled step; NaN without episodes.
	EpisodeDetect float64
	// Samples, Alerts and Missed are the raw counts.
	Samples int
	Alerts  int
	Missed  int
	// Sampled is the per-step mask (only when KeepMask was set).
	Sampled []bool
}

// ReplaySeries drives an adaptive sampler over a pre-recorded series at
// default-interval granularity, as the evaluation does: the sampler sees
// only the steps it samples, while accuracy is judged against every step.
func ReplaySeries(series []float64, cfg ReplayConfig) (ReplayResult, error) {
	var mask []bool
	if cfg.KeepMask {
		mask = make([]bool, len(series))
	}
	acc, err := replay(series, cfg, mask)
	if err != nil {
		return ReplayResult{}, err
	}
	_, samples := acc.Steps()
	return ReplayResult{
		Ratio:         acc.SamplingRatio(),
		Misdetect:     acc.MisdetectionRate(),
		EpisodeDetect: acc.EpisodeDetectionRate(),
		Samples:       samples,
		Alerts:        acc.Alerts(),
		Missed:        acc.Missed(),
		Sampled:       mask,
	}, nil
}

// replay is ReplaySeries's loop: it scores the adaptive schedule against
// every step and, when mask is non-nil, marks the steps it sampled.
func replay(series []float64, cfg ReplayConfig, mask []bool) (task.Accuracy, error) {
	if len(series) == 0 {
		return task.Accuracy{}, fmt.Errorf("bench: empty series")
	}
	sampler, err := core.NewSampler(core.Config{
		Threshold:   cfg.Threshold,
		Err:         cfg.Err,
		MaxInterval: cfg.MaxInterval,
		Estimator:   cfg.Estimator,
		Growth:      cfg.Growth,
		Slack:       cfg.Slack,
		Patience:    cfg.Patience,
		StatsWindow: cfg.StatsWindow,
	})
	if err != nil {
		return task.Accuracy{}, fmt.Errorf("bench: %w", err)
	}
	var acc task.Accuracy
	next := 0
	for i, v := range series {
		sampled := i == next
		if sampled {
			next = i + sampler.Observe(v)
			if mask != nil {
				mask[i] = true
			}
		}
		acc.Record(v > cfg.Threshold, sampled)
	}
	return acc, nil
}

// scoreSchedule scores a fixed sampling schedule over one series: step i
// alerts when it exceeds threshold and is detected when sampled(i) holds.
// sampled is called once per step, in order.
func scoreSchedule(series []float64, threshold float64, sampled func(i int) bool) task.Accuracy {
	var acc task.Accuracy
	for i, v := range series {
		acc.Record(v > threshold, sampled(i))
	}
	return acc
}

// PooledResult aggregates replays over many variables of one task family.
type PooledResult struct {
	// Ratio is total samples over total steps across variables.
	Ratio float64
	// Misdetect is total missed alerts over total alerts (pooled, so
	// variables with many alerts weigh more); NaN without alerts.
	Misdetect float64
	// EpisodeDetect is the mean episode detection rate over the variables
	// that had episodes; NaN when none had.
	EpisodeDetect float64
	// Variables is how many series were replayed.
	Variables int
	Alerts    int
	Missed    int
}

// pool reduces per-series scores in index order — the one pooling every
// figure, ablation, baseline and workload row goes through — so the result
// is the same for any worker count that produced the scores.
func pool(scores []task.Accuracy) PooledResult {
	out := PooledResult{Variables: len(scores), Misdetect: math.NaN(), EpisodeDetect: math.NaN()}
	var samples, steps, rated int
	var rateSum float64
	for i := range scores {
		a := &scores[i]
		total, sampled := a.Steps()
		steps += total
		samples += sampled
		out.Alerts += a.Alerts()
		out.Missed += a.Missed()
		if rate := a.EpisodeDetectionRate(); !math.IsNaN(rate) {
			rateSum += rate
			rated++
		}
	}
	out.Ratio = float64(samples) / float64(steps)
	if out.Alerts > 0 {
		out.Misdetect = float64(out.Missed) / float64(out.Alerts)
	}
	if rated > 0 {
		out.EpisodeDetect = rateSum / float64(rated)
	}
	return out
}

// poolEach scores n series across the engine, each into its own slot, and
// pools the scores.
func poolEach(eng *Engine, n int, score func(i int) (task.Accuracy, error)) (PooledResult, error) {
	scores := make([]task.Accuracy, n)
	err := eng.ForEach(n, func(i int) error {
		acc, err := score(i)
		if err != nil {
			return fmt.Errorf("bench: series %d: %w", i, err)
		}
		scores[i] = acc
		return nil
	})
	if err != nil {
		return PooledResult{}, err
	}
	return pool(scores), nil
}

// ReplayMany replays every series with a per-series threshold derived from
// the given selectivity k (percent) and pools the results.
func ReplayMany(series [][]float64, k float64, cfg ReplayConfig) (PooledResult, error) {
	if len(series) == 0 {
		return PooledResult{}, fmt.Errorf("bench: no series")
	}
	thresholds := make([]float64, len(series))
	for i, s := range series {
		t, err := task.ThresholdForSelectivity(s, k)
		if err != nil {
			return PooledResult{}, fmt.Errorf("bench: series %d: %w", i, err)
		}
		thresholds[i] = t
	}
	return replayPooled(serialEngine, series, thresholds, cfg)
}

// replayPooled pools adaptive replays of every series against pre-derived
// per-series thresholds, fanning the independent series across the engine.
func replayPooled(eng *Engine, series [][]float64, thresholds []float64, cfg ReplayConfig) (PooledResult, error) {
	return poolEach(eng, len(series), func(i int) (task.Accuracy, error) {
		c := cfg
		c.Threshold = thresholds[i]
		return replay(series[i], c, nil)
	})
}

// thresholdCache amortizes threshold derivation across a whole experiment
// grid: each series is fed once through a task.StreamingThresholds sketch,
// after which any k is answered from a summary of fixed size. Memory per
// series is constant in the trace
// length, which is what lets the engine scale to series counts whose sorted
// copies would not fit in RAM; the estimates carry the sketch's rank-error
// contract (stats.SketchRankErrorBound), which the equivalence tests and
// StreamingErrorCheck hold against exact sorted copies (sortedCopies).
//
// The cache builds in parallel across the engine and is deterministic for
// any worker count (per-series slot writes only). A sweep over |Ks|·|Errs|
// cells pays one build per series, not one per (cell, series).
type thresholdCache struct {
	stream []*task.StreamingThresholds
}

// newThresholdCache builds the per-series sketches, in parallel. ks is the
// selectivity grid the cache will be asked; off-grid ks are answered just as
// well.
func newThresholdCache(eng *Engine, series [][]float64, ks []float64) (*thresholdCache, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("bench: no series")
	}
	c := &thresholdCache{stream: make([]*task.StreamingThresholds, len(series))}
	err := eng.ForEach(len(series), func(i int) error {
		if len(series[i]) == 0 {
			return fmt.Errorf("bench: series %d is empty", i)
		}
		st, err := task.NewStreamingThresholds(ks)
		if err != nil {
			return fmt.Errorf("bench: series %d: %w", i, err)
		}
		for _, v := range series[i] {
			st.Observe(v)
		}
		c.stream[i] = st
		return nil
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// n reports how many series the cache covers.
func (c *thresholdCache) n() int { return len(c.stream) }

// forSeries derives one series' threshold at selectivity k.
func (c *thresholdCache) forSeries(i int, k float64) (float64, error) {
	t, err := c.stream[i].Threshold(k)
	if err != nil {
		return 0, fmt.Errorf("bench: series %d: %w", i, err)
	}
	return t, nil
}

// forK derives the per-series threshold vector at one selectivity.
func (c *thresholdCache) forK(k float64) ([]float64, error) {
	out := make([]float64, c.n())
	for i := range out {
		t, err := c.forSeries(i, k)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// grid derives thresholds for a whole selectivity axis: out[ki][i] is
// series i's threshold at ks[ki].
func (c *thresholdCache) grid(ks []float64) ([][]float64, error) {
	out := make([][]float64, len(ks))
	for ki := range ks {
		out[ki] = make([]float64, c.n())
	}
	for i, st := range c.stream {
		for ki, k := range ks {
			t, err := st.Threshold(k)
			if err != nil {
				return nil, fmt.Errorf("bench: series %d: %w", i, err)
			}
			out[ki][i] = t
		}
	}
	return out, nil
}
