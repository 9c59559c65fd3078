// Package volley is a Go implementation of Volley, the violation-likelihood
// based state-monitoring system for datacenters (Meng, Iyengar, Rouvellou,
// Liu — ICDCS 2013).
//
// Distributed state monitoring checks whether an aggregate of values
// sampled on distributed nodes violates a threshold. Sampling is the cost
// Volley minimizes: instead of a fixed sampling interval, each monitor
// estimates — with a distribution-free Chebyshev bound — how likely it is
// to miss a violation during the next sampling gap, and stretches or
// resets its interval so that the mis-detection probability stays below a
// user-specified error allowance.
//
// The package exposes three layers, mirroring the paper:
//
//   - Monitor level: Sampler adapts one monitor's sampling interval
//     (NewSampler, SamplerConfig).
//   - Task level: Monitor and Coordinator run a distributed task — local
//     violations, global polls, and iterative error-allowance balancing
//     across monitors (NewMonitor, NewCoordinator).
//   - Multi-task level: correlation-gated monitoring plans skip sampling
//     on expensive tasks unless a correlated cheap task signals trouble
//     (NewCorrelationDetector, BuildMonitoringPlan, NewGate).
//
// The subpackages under internal/ additionally contain the simulation
// substrates (virtual datacenter, synthetic workloads, virtual time) and
// the benchmark harness that regenerates every figure of the paper's
// evaluation; see DESIGN.md and EXPERIMENTS.md.
package volley

import (
	"volley/internal/core"
	"volley/internal/stats"
	"volley/internal/task"
)

// SamplerConfig parameterizes a monitor-level adaptive sampler. See
// core.Config for field documentation; the zero value of optional fields
// selects the paper's constants (γ = 0.2, p = 20, statistics window 1000,
// Chebyshev estimation, additive interval growth).
type SamplerConfig = core.Config

// Sampler is the monitor-level adaptation algorithm (paper Section III).
// Call Observe with each sampled value; it returns the interval, in units
// of the task's default sampling interval, to wait before the next sample.
type Sampler = core.Sampler

// NewSampler builds a Sampler. It returns an error for invalid
// configurations (allowance outside [0, 1], max interval < 1, …).
func NewSampler(cfg SamplerConfig) (*Sampler, error) {
	return core.NewSampler(cfg)
}

// SamplerState is a serializable snapshot of a Sampler's adaptive state
// (Sampler.Snapshot / Sampler.Restore).
type SamplerState = core.SamplerState

// Estimator bounds per-step violation probabilities; see the two provided
// implementations.
type Estimator = core.Estimator

// ChebyshevEstimator is the paper's distribution-free estimator.
type ChebyshevEstimator = core.ChebyshevEstimator

// GaussianEstimator assumes normally distributed deltas (ablation only).
type GaussianEstimator = core.GaussianEstimator

// Direction selects which side of the threshold counts as a violation.
type Direction = core.Direction

// Directions: Above is the paper's setting (alert on v > T); Below alerts
// on v < T (free memory, throughput floors).
const (
	Above = core.Above
	Below = core.Below
)

// Growth selects the interval growth policy of a Sampler.
type Growth = core.Growth

// Growth policies: GrowthAdditive is the paper's scheme (I ← I+1 with
// immediate reset); GrowthMultiplicative doubles instead (ablation only).
const (
	GrowthAdditive       = core.GrowthAdditive
	GrowthMultiplicative = core.GrowthMultiplicative
)

// MisdetectBound computes β̄(I), the upper bound on the probability of
// missing a violation within the next I default intervals, given the
// current value, the threshold and the estimated moments of the
// inter-sample delta (the paper's Inequality 3).
func MisdetectBound(est Estimator, value, threshold, mean, stddev float64, interval int) (float64, error) {
	return core.MisdetectBound(est, value, threshold, mean, stddev, interval)
}

// AggregateSampler monitors a time-window aggregate (moving mean, sum or
// max) of a raw series instead of instantaneous values — the "tasks with
// aggregation time window" extension the paper lists as ongoing work.
type AggregateSampler = core.AggregateSampler

// AggregateKind selects the window aggregate an AggregateSampler monitors.
type AggregateKind = core.AggregateKind

// Aggregate kinds for NewAggregateSampler.
const (
	AggregateMean = core.AggregateMean
	AggregateSum  = core.AggregateSum
	AggregateMax  = core.AggregateMax
)

// NewAggregateSampler builds an adaptive sampler over a moving window of
// the given length (in default intervals); the threshold in cfg applies to
// the aggregate value.
func NewAggregateSampler(cfg SamplerConfig, kind AggregateKind, window int) (*AggregateSampler, error) {
	return core.NewAggregateSampler(cfg, kind, window)
}

// TaskSpec describes one distributed state-monitoring task.
type TaskSpec = task.Spec

// Accuracy tracks ground-truth alerts versus detections at default-interval
// granularity, yielding the evaluation's mis-detection rate and sampling
// ratio.
type Accuracy = task.Accuracy

// ThresholdForSelectivity derives a monitoring threshold from observed
// values and an alert selectivity k in percent: the (100−k)-th percentile,
// the methodology the paper uses to create monitoring tasks.
func ThresholdForSelectivity(values []float64, k float64) (float64, error) {
	return task.ThresholdForSelectivity(values, k)
}

// StreamingThresholds answers the selectivity-to-threshold mapping of
// ThresholdForSelectivity online, without retaining the observed series: a
// quantile sketch summarizes everything observed in one fixed-size object,
// with no allocation per observation, and answers the (100−k)-th percentile
// for any selectivity k in (0, 100) mid-stream — which is what lets a
// long-running deployment retune a task's threshold from live data without
// replaying history. Estimates carry the sketch's rank-error contract:
// RankError reports the bound a tracker currently holds, on any stream.
type StreamingThresholds = task.StreamingThresholds

// NewStreamingThresholds builds a streaming threshold tracker for the
// given selectivity grid (percent, each in (0, 100)).
func NewStreamingThresholds(ks []float64) (*StreamingThresholds, error) {
	return task.NewStreamingThresholds(ks)
}

// QuantileSketch is the underlying bounded-memory quantile estimator: a
// Greenwald–Khanna summary of fixed capacity that answers any quantile,
// exactly while it still holds every observation and within RankError of
// the requested rank afterwards.
type QuantileSketch = stats.Sketch

// NewQuantileSketch builds a sketch with the given target quantile grid
// (each in (0, 1)).
func NewQuantileSketch(targets []float64) (*QuantileSketch, error) {
	return stats.NewSketch(targets)
}

// SketchRankErrorBound is the documented accuracy contract of the
// streaming quantile estimates, in rank space: a sketch quantile at target
// q is the exact quantile of some rank within q ± SketchRankErrorBound on
// every committed workload and test stream shape; a sketch's RankError
// reports the bound it actually holds.
const SketchRankErrorBound = stats.SketchRankErrorBound

// SplitThresholdEven divides a global threshold evenly across n monitors
// (the local-task decomposition of Section II-A).
func SplitThresholdEven(threshold float64, n int) ([]float64, error) {
	return task.SplitEven(threshold, n)
}

// SplitThresholdWeighted divides a global threshold across monitors
// proportionally to non-negative weights (e.g. historical local means).
func SplitThresholdWeighted(threshold float64, weights []float64) ([]float64, error) {
	return task.SplitWeighted(threshold, weights)
}

// BoxSummary is a five-number summary with 1.5·IQR whiskers, as used for
// the paper's CPU-utilization box plots.
type BoxSummary = stats.BoxSummary

// Summarize computes a BoxSummary of values.
func Summarize(values []float64) BoxSummary {
	return stats.Summarize(values)
}
