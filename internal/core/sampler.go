package core

import (
	"fmt"
	"math"

	"volley/internal/obs"
	"volley/internal/stats"
)

// Direction selects which side of the threshold counts as a violation.
type Direction int

const (
	// Above is the paper's setting: a violation is v > T (DDoS traffic
	// difference, response time, utilization).
	Above Direction = iota + 1
	// Below alerts on v < T (free memory, healthy-replica count,
	// throughput floors). Implemented by monitoring −v against −T, which
	// preserves every property of the estimator.
	Below
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case Above:
		return "above"
	case Below:
		return "below"
	default:
		return fmt.Sprintf("direction(%d)", int(d))
	}
}

// Growth selects how the sampler enlarges its interval once the
// mis-detection bound has stayed comfortably below the error allowance.
type Growth int

const (
	// GrowthAdditive is the paper's scheme: I ← I + 1. Combined with the
	// immediate reset to the default interval it behaves like AIMD, which
	// the paper credits for Volley's conservativeness.
	GrowthAdditive Growth = iota + 1
	// GrowthMultiplicative doubles the interval instead (ablation only).
	GrowthMultiplicative
)

// Default adaptation constants from the paper (Section III-B: "Through
// empirical observation, we find that setting γ = 0.2, p = 20 is a good
// practice", and "the algorithm periodically restarts the statistics
// updating by setting n = 0 when n > 1000").
const (
	DefaultSlack       = 0.2
	DefaultPatience    = 20
	DefaultStatsWindow = 1000
	// DefaultStatsSeed makes statistics restarts true resets (n = 0), as
	// the paper specifies. Carrying the previous window's moments across a
	// restart looks harmless but poisons recovery: one violation episode
	// inflates the δ variance, and a carried seed keeps the estimate
	// inflated for thousands of samples (it decays only as seed/n),
	// pinning the sampler at the default interval long after the episode.
	// A true reset briefly has no variance estimate, but the patience
	// requirement (p consecutive comfortable bounds) already prevents the
	// interval from growing before the fresh statistics stabilize.
	DefaultStatsSeed = 0
)

// Config parameterizes an adaptive sampler for one monitored variable.
type Config struct {
	// Threshold is T: a state alert fires when the monitored value crosses
	// it in the configured Direction.
	Threshold float64
	// Direction selects the violating side of the threshold. Zero means
	// Above (the paper's setting).
	Direction Direction
	// Err is the error allowance: the acceptable probability of missing a
	// violation relative to periodical sampling at the default interval.
	// Must be in [0, 1]. Err = 0 degenerates to periodical sampling.
	Err float64
	// MaxInterval is Im, the largest usable interval in units of the
	// default interval. Must be ≥ 1.
	MaxInterval int
	// Slack is γ, the safety margin below Err required before the interval
	// may grow. Must be in [0, 1). Zero means "use DefaultSlack"; to
	// really run without slack (not recommended) set a tiny positive value.
	Slack float64
	// Patience is p, the number of consecutive comfortable estimates
	// required before growing the interval. Zero means DefaultPatience.
	Patience int
	// StatsWindow restarts δ statistics after this many updates. Zero
	// means DefaultStatsWindow; negative disables restarting.
	StatsWindow int
	// Estimator bounds per-step violation probabilities. Nil means the
	// paper's ChebyshevEstimator.
	Estimator Estimator
	// Growth selects the interval growth policy. Zero means the paper's
	// GrowthAdditive.
	Growth Growth
}

func (c *Config) normalize() error {
	if math.IsNaN(c.Threshold) {
		return fmt.Errorf("core: threshold is NaN")
	}
	if c.Err < 0 || c.Err > 1 || math.IsNaN(c.Err) {
		return fmt.Errorf("core: error allowance %v outside [0, 1]", c.Err)
	}
	if c.MaxInterval < 1 {
		return fmt.Errorf("core: max interval %d < 1", c.MaxInterval)
	}
	if c.Slack < 0 || c.Slack >= 1 || math.IsNaN(c.Slack) {
		return fmt.Errorf("core: slack %v outside [0, 1)", c.Slack)
	}
	if c.Slack == 0 {
		c.Slack = DefaultSlack
	}
	if c.Direction == 0 {
		c.Direction = Above
	}
	if c.Direction != Above && c.Direction != Below {
		return fmt.Errorf("core: unknown direction %d", c.Direction)
	}
	if c.Patience < 0 {
		return fmt.Errorf("core: patience %d < 0", c.Patience)
	}
	if c.Patience == 0 {
		c.Patience = DefaultPatience
	}
	if c.StatsWindow == 0 {
		c.StatsWindow = DefaultStatsWindow
	}
	if c.StatsWindow < 0 {
		c.StatsWindow = 0 // disabled
	}
	if c.Estimator == nil {
		c.Estimator = ChebyshevEstimator{}
	}
	if c.Growth == 0 {
		c.Growth = GrowthAdditive
	}
	if c.Growth != GrowthAdditive && c.Growth != GrowthMultiplicative {
		return fmt.Errorf("core: unknown growth policy %d", c.Growth)
	}
	return nil
}

// Sampler implements the paper's violation-likelihood based adaptation
// (Section III-B). After every sampling operation the owner calls Observe
// with the sampled value; the sampler updates its δ statistics, recomputes
// the mis-detection bound β̄(I) and returns the interval (in default
// intervals) to use until the next sample.
//
// Sampler is not safe for concurrent use.
type Sampler struct {
	cfg      Config
	delta    *stats.Windowed
	interval int
	streak   int

	lastValue float64
	hasLast   bool
	lastBound float64

	samples   uint64
	resets    uint64
	increases uint64

	obs SamplerObs
}

// SamplerObs wires a sampler's decision points into the observability
// layer. Every field is optional — the obs instruments are nil-safe, so an
// un-instrumented sampler pays one nil check per decision point and
// allocates nothing either way (alloc_test.go guards both).
type SamplerObs struct {
	// Tracer receives IntervalGrow/IntervalReset events carrying the
	// misdetection bound that drove the decision.
	Tracer *obs.Tracer
	// Node and Task label the tracer events.
	Node string
	Task string
	// Observations counts Observe calls.
	Observations *obs.Counter
	// Grows and Resets count interval increases and fallbacks.
	Grows  *obs.Counter
	Resets *obs.Counter
	// Intervals is a sum of current intervals the sampler holds its share
	// of: attaching adds the sampler's interval, and every change of
	// interval after that — a grow, a reset, a restore — moves it by the
	// difference. Given to one sampler it reads that sampler's interval;
	// shared by a task's samplers, their sum, whose mean a scrape renders
	// without asking any of them. An Observe that keeps the interval does
	// not touch it.
	Intervals *obs.Gauge
	// Bound is set to the misdetection bound on every Observe: the gauge of
	// a sampler that has a page to itself (single-signal volleyd).
	Bound *obs.Gauge
	// BoundDist accumulates the distribution of misdetection bounds.
	BoundDist *obs.Histogram
}

// Instrument attaches observability instruments to the sampler. Replacing
// them mid-run is allowed: the new instruments count from their own current
// state, and the sampler's interval moves from the old Intervals sum to the
// new one.
func (s *Sampler) Instrument(o SamplerObs) {
	s.obs.Intervals.Add(-float64(s.interval))
	s.obs = o
	s.obs.Intervals.Add(float64(s.interval))
}

// setInterval changes the interval and moves the Intervals sum with it.
func (s *Sampler) setInterval(interval int) {
	if interval != s.interval {
		s.obs.Intervals.Add(float64(interval - s.interval))
		s.interval = interval
	}
}

// NewSampler returns a sampler with interval 1 (the default interval) and
// no history. It returns an error for invalid configurations.
func NewSampler(cfg Config) (*Sampler, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	return &Sampler{
		cfg:      cfg,
		delta:    stats.NewWindowed(cfg.StatsWindow, DefaultStatsSeed),
		interval: 1,
	}, nil
}

// Observe records the value obtained by the sampling operation that just
// completed and returns the interval to use for the next one. The sampler
// assumes consecutive Observe calls are separated by the interval it
// returned previously.
func (s *Sampler) Observe(value float64) int {
	if s.cfg.Direction == Below {
		// Monitoring v < T is identical to monitoring −v > −T.
		value = -value
	}
	s.samples++
	s.obs.Observations.Inc()
	if s.hasLast {
		// δ̂ = (v(t) − v(t−I)) / I, Section III-B.
		s.delta.Observe((value - s.lastValue) / float64(s.interval))
	}
	s.lastValue = value
	s.hasLast = true

	bound, err := MisdetectBound(s.cfg.Estimator, value, s.effectiveThreshold(),
		s.delta.Mean(), s.delta.StdDev(), s.interval)
	if err != nil {
		// Unreachable: interval ≥ 1 and estimator non-nil by construction.
		panic(fmt.Sprintf("core: misdetect bound: %v", err))
	}
	s.lastBound = bound
	s.obs.Bound.Set(bound)
	s.obs.BoundDist.Observe(bound)

	if s.cfg.Err == 0 {
		// Zero allowance degenerates to periodical sampling at the default
		// interval (Figure 6's err = 0 column).
		s.setInterval(1)
		s.streak = 0
		return s.interval
	}

	switch {
	case bound > s.cfg.Err:
		// Risky: fall back to the default interval immediately.
		if s.interval != 1 {
			s.resets++
			s.obs.Resets.Inc()
			s.obs.Tracer.Record(obs.Event{
				Type: obs.EventIntervalReset, Node: s.obs.Node, Task: s.obs.Task,
				Bound: bound, Err: s.cfg.Err, Interval: 1,
			})
		}
		s.setInterval(1)
		s.streak = 0
	case bound <= (1-s.cfg.Slack)*s.cfg.Err:
		s.streak++
		if s.streak >= s.cfg.Patience && s.interval < s.cfg.MaxInterval {
			s.setInterval(s.grow(s.interval))
			s.increases++
			s.streak = 0
			s.obs.Grows.Inc()
			s.obs.Tracer.Record(obs.Event{
				Type: obs.EventIntervalGrow, Node: s.obs.Node, Task: s.obs.Task,
				Bound: bound, Err: s.cfg.Err, Interval: s.interval,
			})
		}
	default:
		// Within the slack band: hold the current interval.
		s.streak = 0
	}
	return s.interval
}

func (s *Sampler) grow(interval int) int {
	switch s.cfg.Growth {
	case GrowthMultiplicative:
		interval *= 2
	default:
		interval++
	}
	if interval > s.cfg.MaxInterval {
		interval = s.cfg.MaxInterval
	}
	return interval
}

// Interval reports the current sampling interval in default intervals.
func (s *Sampler) Interval() int { return s.interval }

// Bound reports β̄(I) computed at the last Observe (0 before any).
func (s *Sampler) Bound() float64 { return s.lastBound }

// Err reports the sampler's current error allowance.
func (s *Sampler) Err() float64 { return s.cfg.Err }

// SetErr updates the error allowance; the distributed coordinator calls
// this when it re-balances allowance across monitors. If the new allowance
// is below the last bound the interval resets to the default on the next
// Observe. It returns an error for allowances outside [0, 1].
func (s *Sampler) SetErr(err float64) error {
	if err < 0 || err > 1 || math.IsNaN(err) {
		return fmt.Errorf("core: error allowance %v outside [0, 1]", err)
	}
	s.cfg.Err = err
	return nil
}

// Threshold reports the sampler's violation threshold T (as configured,
// regardless of direction).
func (s *Sampler) Threshold() float64 { return s.cfg.Threshold }

// Direction reports which side of the threshold violates.
func (s *Sampler) Direction() Direction { return s.cfg.Direction }

// Violates reports whether a value crosses the threshold in the sampler's
// configured direction.
func (s *Sampler) Violates(value float64) bool {
	if s.cfg.Direction == Below {
		return value < s.cfg.Threshold
	}
	return value > s.cfg.Threshold
}

// effectiveThreshold is the threshold in the internal "above" frame.
func (s *Sampler) effectiveThreshold() float64 {
	if s.cfg.Direction == Below {
		return -s.cfg.Threshold
	}
	return s.cfg.Threshold
}

// SetThreshold updates T (used when a coordinator re-divides a global
// threshold across monitors). It returns an error for NaN.
func (s *Sampler) SetThreshold(t float64) error {
	if math.IsNaN(t) {
		return fmt.Errorf("core: threshold is NaN")
	}
	s.cfg.Threshold = t
	return nil
}

// CostReduction reports r_i from Section IV-B: the additional cost
// reduction available if the interval grew by one, r_i = 1 − I/(I+1) =
// 1/(I+1), measured relative to periodical sampling at the default
// interval. A sampler already at its maximum interval has no potential
// reduction left, so it reports 0 — additional error allowance would be
// wasted on it.
func (s *Sampler) CostReduction() float64 {
	if s.interval >= s.cfg.MaxInterval {
		return 0
	}
	return 1 / float64(s.interval+1)
}

// ErrNeeded reports e_i from Section IV-B: the error allowance this
// monitor needs to grow its interval by one, e_i = β̄(I)/(1−γ), derived
// from the adaptation rule.
func (s *Sampler) ErrNeeded() float64 {
	return s.lastBound / (1 - s.cfg.Slack)
}

// Stats reports lifetime counters: total samples observed, resets to the
// default interval, and interval increases.
func (s *Sampler) Stats() (samples, resets, increases uint64) {
	return s.samples, s.resets, s.increases
}

// DeltaMoments exposes the current estimate of δ's mean and standard
// deviation, mainly for tests and diagnostics.
func (s *Sampler) DeltaMoments() (mean, stddev float64) {
	return s.delta.Mean(), s.delta.StdDev()
}
