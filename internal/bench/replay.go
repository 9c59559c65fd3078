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
	if len(series) == 0 {
		return ReplayResult{}, fmt.Errorf("bench: empty series")
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
		return ReplayResult{}, fmt.Errorf("bench: %w", err)
	}

	var acc task.Accuracy
	var mask []bool
	if cfg.KeepMask {
		mask = make([]bool, len(series))
	}
	samples := 0
	next := 0
	for i, v := range series {
		sampled := i == next
		if sampled {
			samples++
			interval := sampler.Observe(v)
			next = i + interval
			if cfg.KeepMask {
				mask[i] = true
			}
		}
		acc.Record(v > cfg.Threshold, sampled)
	}
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

// PooledResult aggregates replays over many variables of one task family.
type PooledResult struct {
	// Ratio is total samples over total steps across variables.
	Ratio float64
	// Misdetect is total missed alerts over total alerts (pooled, so
	// variables with many alerts weigh more); NaN without alerts.
	Misdetect float64
	// Variables is how many series were replayed.
	Variables int
	Alerts    int
	Missed    int
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
	return replayManyThresholds(serialEngine, series, thresholds, cfg)
}

// replayManyThresholds pools adaptive replays of every series against
// pre-derived per-series thresholds, fanning the independent series across
// the engine. Per-series counts land in indexed slots and are reduced in
// index order, so the result is identical for any worker count.
func replayManyThresholds(eng *Engine, series [][]float64, thresholds []float64, cfg ReplayConfig) (PooledResult, error) {
	type partial struct {
		samples, steps, alerts, missed int
	}
	parts := make([]partial, len(series))
	err := eng.ForEach(len(series), func(i int) error {
		c := cfg
		c.Threshold = thresholds[i]
		c.KeepMask = false
		r, err := ReplaySeries(series[i], c)
		if err != nil {
			return fmt.Errorf("bench: series %d: %w", i, err)
		}
		parts[i] = partial{samples: r.Samples, steps: len(series[i]), alerts: r.Alerts, missed: r.Missed}
		return nil
	})
	if err != nil {
		return PooledResult{}, err
	}
	var totalSamples, totalSteps, alerts, missed int
	for _, p := range parts {
		totalSamples += p.samples
		totalSteps += p.steps
		alerts += p.alerts
		missed += p.missed
	}
	out := PooledResult{
		Ratio:     float64(totalSamples) / float64(totalSteps),
		Variables: len(series),
		Alerts:    alerts,
		Missed:    missed,
		Misdetect: math.NaN(),
	}
	if alerts > 0 {
		out.Misdetect = float64(missed) / float64(alerts)
	}
	return out, nil
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
