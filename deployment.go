package volley

import (
	"fmt"
	"math"
	"time"

	"volley/internal/coord"
	"volley/internal/host"
)

// AlertFunc is invoked when a global poll confirms a global violation.
type AlertFunc = coord.AlertFunc

// DeploymentConfig wires a complete distributed task from its spec: one
// coordinator plus one monitor per agent, local thresholds split from the
// global threshold, and the task-level error allowance divided across
// monitors (then continuously rebalanced by the coordinator).
type DeploymentConfig struct {
	// Spec describes the task. Spec.Monitors must equal len(Agents).
	Spec TaskSpec
	// Agents provide the monitored variable, one per monitor.
	Agents []Agent
	// Network connects the nodes (in-memory for simulations, TCP adapters
	// for real deployments).
	Network Network
	// Scheme selects allowance distribution. Zero means SchemeAdaptive.
	Scheme Scheme
	// OnAlert is invoked on confirmed global violations. Optional.
	OnAlert AlertFunc
	// UpdatePeriod overrides the allowance updating period (in default
	// intervals). Zero keeps the paper's 1000.
	UpdatePeriod int
	// SplitWeights optionally splits the global threshold proportionally
	// (e.g. by historical means); nil splits evenly.
	SplitWeights []float64
	// Patience overrides the sampler patience p. Zero keeps the paper's 20.
	Patience int
	// Direction selects the violating side of the local thresholds. Zero
	// means Above.
	Direction Direction
	// DeadAfter enables coordinator-side liveness: a monitor silent for
	// this many default intervals is declared dead, excluded from global
	// polls, and its error allowance is reclaimed and redistributed to the
	// live monitors (restored when it resurrects). Zero disables liveness
	// tracking.
	DeadAfter int
	// HeartbeatEvery sets the monitors' liveness-beacon period in default
	// intervals. Zero with DeadAfter set defaults to DeadAfter/3 (at least
	// one beacon per horizon even under loss); zero without DeadAfter
	// disables heartbeats.
	HeartbeatEvery int
}

// Deployment is a wired task: drive it by calling Tick once per default
// sampling interval.
type Deployment struct {
	coordinator *Coordinator
	monitors    []*Monitor
	spec        TaskSpec
	plan        host.Plan // the monitors, walked as volleyd walks its hosted tasks
}

// NewDeployment validates cfg and builds the task. Monitor addresses are
// "<task>-mon-<i>" and the coordinator is "<task>-coord"; they must be free
// on the network.
func NewDeployment(cfg DeploymentConfig) (*Deployment, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Agents) != cfg.Spec.Monitors {
		return nil, fmt.Errorf("volley: %d agents for a task spanning %d monitors",
			len(cfg.Agents), cfg.Spec.Monitors)
	}
	if cfg.Network == nil {
		return nil, fmt.Errorf("volley: nil network")
	}
	for i, a := range cfg.Agents {
		if a == nil {
			return nil, fmt.Errorf("volley: nil agent %d", i)
		}
	}

	var (
		locals []float64
		err    error
	)
	if cfg.SplitWeights != nil {
		locals, err = SplitThresholdWeighted(cfg.Spec.Threshold, cfg.SplitWeights)
	} else {
		locals, err = SplitThresholdEven(cfg.Spec.Threshold, cfg.Spec.Monitors)
	}
	if err != nil {
		return nil, err
	}
	if len(locals) != cfg.Spec.Monitors {
		return nil, fmt.Errorf("volley: %d split weights for %d monitors",
			len(locals), cfg.Spec.Monitors)
	}

	coordID := cfg.Spec.ID + "-coord"
	ids := make([]string, cfg.Spec.Monitors)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s-mon-%d", cfg.Spec.ID, i)
	}

	heartbeatEvery := cfg.HeartbeatEvery
	if heartbeatEvery == 0 && cfg.DeadAfter > 0 {
		heartbeatEvery = cfg.DeadAfter / 3
		if heartbeatEvery < 1 {
			heartbeatEvery = 1
		}
	}
	if cfg.DeadAfter > 0 && heartbeatEvery >= cfg.DeadAfter {
		return nil, fmt.Errorf("volley: heartbeat period %d must stay below the liveness horizon %d",
			heartbeatEvery, cfg.DeadAfter)
	}

	updatePeriod := cfg.UpdatePeriod
	coordinator, err := NewCoordinator(CoordinatorConfig{
		ID:           coordID,
		Task:         cfg.Spec.ID,
		Threshold:    cfg.Spec.Threshold,
		Direction:    cfg.Direction,
		Err:          cfg.Spec.Err,
		Monitors:     ids,
		Network:      cfg.Network,
		Scheme:       cfg.Scheme,
		UpdatePeriod: updatePeriod,
		DeadAfter:    cfg.DeadAfter,
		OnAlert:      cfg.OnAlert,
	})
	if err != nil {
		return nil, err
	}
	if updatePeriod == 0 {
		updatePeriod = coord.DefaultUpdatePeriod
	}

	monitors := make([]*Monitor, cfg.Spec.Monitors)
	for i := range monitors {
		monitors[i], err = NewMonitor(MonitorConfig{
			ID:    ids[i],
			Task:  cfg.Spec.ID,
			Agent: cfg.Agents[i],
			Sampler: SamplerConfig{
				Threshold:   locals[i],
				Direction:   cfg.Direction,
				Err:         cfg.Spec.Err / float64(cfg.Spec.Monitors),
				MaxInterval: cfg.Spec.MaxInterval,
				Patience:    cfg.Patience,
			},
			Network:        cfg.Network,
			Coordinator:    coordID,
			YieldEvery:     updatePeriod,
			HeartbeatEvery: heartbeatEvery,
		})
		if err != nil {
			return nil, err
		}
	}
	d := &Deployment{coordinator: coordinator, monitors: monitors, spec: cfg.Spec}
	var set host.Set
	set.Put(cfg.Spec.ID, host.Task{Mons: monitors})
	d.plan.Sync(&set)
	return d, nil
}

// Tick advances the whole task one default sampling interval: the
// coordinator, then every monitor in the rotating order volleyd ticks its
// hosted monitors in. Agent failures are collected but do not stop the
// other monitors; the first error of the walk (if any) is returned.
func (d *Deployment) Tick(now time.Duration) error {
	d.coordinator.Tick(now)
	_, err := d.plan.Tick(now)
	return err
}

// Coordinator exposes the task's coordinator.
func (d *Deployment) Coordinator() *Coordinator { return d.coordinator }

// Monitors exposes the task's monitors (do not mutate the slice).
func (d *Deployment) Monitors() []*Monitor { return d.monitors }

// SamplingRatio reports performed sampling operations (including poll
// samples) over elapsed monitor-ticks — 1.0 equals periodical sampling at
// the default interval. NaN before the first tick.
func (d *Deployment) SamplingRatio() float64 {
	var samples, ticks uint64
	for _, m := range d.monitors {
		st := m.Stats()
		samples += st.Samples + st.PollSamples
		ticks += st.Ticks
	}
	if ticks == 0 {
		return math.NaN()
	}
	return float64(samples) / float64(ticks)
}

// Stats reports the coordinator's counters and every monitor's counters.
func (d *Deployment) Stats() (CoordinatorStats, []MonitorStats) {
	out := make([]MonitorStats, len(d.monitors))
	for i, m := range d.monitors {
		out[i] = m.Stats()
	}
	return d.coordinator.Stats(), out
}
