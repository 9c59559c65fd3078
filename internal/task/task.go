// Package task defines the state-monitoring task model of Section II: a
// task watches an aggregate of values from distributed monitors against a
// global threshold, with thresholds derived from an alert selectivity k and
// the global threshold divided into local thresholds across monitors.
//
// It also provides the accuracy bookkeeping used throughout the evaluation
// (alerts, detections and mis-detection rates relative to periodical
// sampling at the default interval).
package task

import (
	"fmt"
	"math"
	"time"

	"volley/internal/stats"
)

// Spec describes one distributed state monitoring task.
type Spec struct {
	// ID names the task.
	ID string
	// Description is a human-readable summary.
	Description string
	// DefaultInterval is Id, the smallest (and accuracy-reference)
	// sampling interval.
	DefaultInterval time.Duration
	// MaxInterval is Im expressed in default intervals.
	MaxInterval int
	// Err is the task-level error allowance.
	Err float64
	// Threshold is the global threshold T.
	Threshold float64
	// Monitors is the number of monitor nodes the task spans.
	Monitors int
}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("task: empty ID")
	}
	if s.DefaultInterval <= 0 {
		return fmt.Errorf("task %s: non-positive default interval %v", s.ID, s.DefaultInterval)
	}
	if s.MaxInterval < 1 {
		return fmt.Errorf("task %s: max interval %d < 1", s.ID, s.MaxInterval)
	}
	if s.Err < 0 || s.Err > 1 || math.IsNaN(s.Err) {
		return fmt.Errorf("task %s: error allowance %v outside [0, 1]", s.ID, s.Err)
	}
	if math.IsNaN(s.Threshold) {
		return fmt.Errorf("task %s: NaN threshold", s.ID)
	}
	if s.Monitors < 1 {
		return fmt.Errorf("task %s: %d monitors", s.ID, s.Monitors)
	}
	return nil
}

// ThresholdForSelectivity derives a monitoring threshold from observed
// values and an alert selectivity k (in percent): T is the (100−k)-th
// percentile of the values, so that approximately k% of values trigger
// alerts ("for a state monitoring task on metric m, we assign its
// monitoring threshold by taking (100−k)-th percentile of m's values").
// It returns an error for empty values or k outside (0, 100).
func ThresholdForSelectivity(values []float64, k float64) (float64, error) {
	t, _, err := ThresholdForSelectivityBuf(values, k, nil)
	return t, err
}

// ThresholdForSelectivityBuf is ThresholdForSelectivity selecting in the
// caller's buffer (stats.QuantileBuf), which it returns for the next call.
func ThresholdForSelectivityBuf(values []float64, k float64, buf []float64) (float64, []float64, error) {
	if len(values) == 0 {
		return 0, buf, fmt.Errorf("task: no values to derive threshold from")
	}
	if k <= 0 || k >= 100 || math.IsNaN(k) {
		return 0, buf, fmt.Errorf("task: selectivity %v outside (0, 100)", k)
	}
	t, buf := stats.QuantileBuf(values, (100-k)/100, buf)
	return t, buf, nil
}

// Thresholds derives the monitoring thresholds for many selectivities from
// one pre-sorted copy of the values: out[i] is the (100−ks[i])-th
// percentile of sortedValues. Where ThresholdForSelectivity copies and
// sorts its input on every call, this fast path lets a caller sweeping a
// selectivity grid sort each series once and answer every k in O(1) — the
// experiment engine's per-workload threshold cache is built on it, turning
// O(grid·n log n) sort work into O(series·n log n).
//
// sortedValues must be sorted ascending (as by sort.Float64s); the
// function verifies this in O(n) and returns an error otherwise, as well
// as for empty values, an empty ks, or any k outside (0, 100).
func Thresholds(sortedValues []float64, ks []float64) ([]float64, error) {
	if len(sortedValues) == 0 {
		return nil, fmt.Errorf("task: no values to derive thresholds from")
	}
	if len(ks) == 0 {
		return nil, fmt.Errorf("task: no selectivities")
	}
	for i := 1; i < len(sortedValues); i++ {
		if sortedValues[i-1] > sortedValues[i] {
			return nil, fmt.Errorf("task: values not sorted at index %d", i)
		}
	}
	out := make([]float64, len(ks))
	for i, k := range ks {
		if k <= 0 || k >= 100 || math.IsNaN(k) {
			return nil, fmt.Errorf("task: selectivity %v outside (0, 100)", k)
		}
		out[i] = stats.QuantileSorted(sortedValues, (100-k)/100)
	}
	return out, nil
}

// SplitEven divides a global threshold evenly across n monitors: as long
// as every local value stays below T/n, no global violation is possible and
// no communication is needed (Section II-A's local-task decomposition).
func SplitEven(threshold float64, n int) ([]float64, error) {
	if n < 1 {
		return nil, fmt.Errorf("task: cannot split threshold across %d monitors", n)
	}
	locals := make([]float64, n)
	for i := range locals {
		locals[i] = threshold / float64(n)
	}
	return locals, nil
}

// SplitWeighted divides a global threshold across monitors proportionally
// to the given non-negative weights (e.g. historical local means), so
// monitors with naturally higher values get higher local thresholds and
// fewer spurious local violations. Weights must sum to a positive value.
func SplitWeighted(threshold float64, weights []float64) ([]float64, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("task: no weights")
	}
	var sum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("task: weight %d is %v", i, w)
		}
		sum += w
	}
	if sum <= 0 {
		return nil, fmt.Errorf("task: weights sum to %v", sum)
	}
	locals := make([]float64, len(weights))
	for i, w := range weights {
		locals[i] = threshold * w / sum
	}
	return locals, nil
}

// Accuracy tracks ground-truth alerts versus detections for one monitored
// series at default-interval granularity. An alert is a step whose value
// exceeds the threshold (what periodical sampling at Id would report); it
// counts as detected when the dynamic scheme sampled that step.
type Accuracy struct {
	alerts       int
	missed       int
	episodes     int
	episodesHit  int
	inEpisode    bool
	episodeSeen  bool
	totalSteps   int
	sampledSteps int
}

// Record registers one step of ground truth: whether the value violated the
// threshold, and whether the dynamic scheme sampled this step.
func (a *Accuracy) Record(violating, sampled bool) {
	a.totalSteps++
	if sampled {
		a.sampledSteps++
	}
	if violating {
		a.alerts++
		if !sampled {
			a.missed++
		}
		if !a.inEpisode {
			a.inEpisode = true
			a.episodes++
			a.episodeSeen = false
		}
		if sampled {
			a.episodeSeen = true
		}
		return
	}
	if a.inEpisode {
		a.inEpisode = false
		if a.episodeSeen {
			a.episodesHit++
		}
	}
}

// finishEpisode closes a trailing episode at the end of a run.
func (a *Accuracy) finishEpisode() {
	if a.inEpisode {
		a.inEpisode = false
		if a.episodeSeen {
			a.episodesHit++
		}
	}
}

// Alerts reports the ground-truth alert count so far.
func (a *Accuracy) Alerts() int { return a.alerts }

// Missed reports how many alerts fell on unsampled steps.
func (a *Accuracy) Missed() int { return a.missed }

// MisdetectionRate reports missed/alerts; NaN when there were no alerts.
func (a *Accuracy) MisdetectionRate() float64 {
	if a.alerts == 0 {
		return math.NaN()
	}
	return float64(a.missed) / float64(a.alerts)
}

// SamplingRatio reports sampled steps over total steps — the evaluation's
// cost metric (1.0 = periodical sampling at the default interval).
func (a *Accuracy) SamplingRatio() float64 {
	if a.totalSteps == 0 {
		return math.NaN()
	}
	return float64(a.sampledSteps) / float64(a.totalSteps)
}

// Steps reports total and sampled step counts.
func (a *Accuracy) Steps() (total, sampled int) { return a.totalSteps, a.sampledSteps }

// EpisodeDetectionRate reports the fraction of violation episodes
// (maximal runs of consecutive alerts) in which at least one step was
// sampled — the secondary, more forgiving accuracy metric from DESIGN.md
// §3. NaN when no episode occurred.
func (a *Accuracy) EpisodeDetectionRate() float64 {
	aCopy := *a
	aCopy.finishEpisode()
	if aCopy.episodes == 0 {
		return math.NaN()
	}
	return float64(aCopy.episodesHit) / float64(aCopy.episodes)
}
