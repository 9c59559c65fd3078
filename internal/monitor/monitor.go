// Package monitor implements Volley's monitor node: the per-variable
// sampling loop that drives an adaptive sampler against a data-providing
// agent, detects local violations, reports them to a coordinator, serves
// global polls and ships the yield statistics that power distributed
// error-allowance coordination (Sections III and IV).
//
// Monitors advance in ticks of the task's default sampling interval; the
// harness (or a real deployment's timer loop) calls Tick once per default
// interval and the monitor decides internally whether this tick performs a
// sampling operation.
package monitor

import (
	"fmt"
	"math"
	"sync"
	"time"

	"volley/internal/alerts"
	"volley/internal/core"
	"volley/internal/obs"
	"volley/internal/transport"
)

// Agent provides the monitored variable; sampling it is the costly
// operation Volley economizes (packet capture + inspection, metric query,
// log analysis).
type Agent interface {
	Sample() (float64, error)
}

// AgentFunc adapts a function to the Agent interface.
type AgentFunc func() (float64, error)

// Sample implements Agent.
func (f AgentFunc) Sample() (float64, error) { return f() }

// Prefetcher is an Agent whose read has a part that can be started early: a
// request that is written and then waited for. Prefetch starts a read and
// returns without waiting; the next Sample completes that read, or performs
// a whole one when none was started. A driver ticking many monitors calls
// Monitor.Prefetch on the ones it is about to tick, so their waits overlap
// without a goroutine. The monitor calls both methods under its own lock.
type Prefetcher interface {
	Agent
	Prefetch()
}

// IntervalGate relaxes a monitor's effective sampling interval while no
// correlated predictor task signals elevated violation likelihood
// (correlation.Gate satisfies it). Tick is called once per monitor tick
// and Interval maps the sampler's adaptive interval to the effective one.
// Implementations are driven from the monitor's tick goroutine and need
// not be thread-safe.
type IntervalGate interface {
	Tick()
	Interval(adaptive int) int
}

// Config parameterizes a monitor.
type Config struct {
	// ID is the monitor's network address / name.
	ID string
	// Task names the task this monitor belongs to.
	Task string
	// Agent provides sampled values.
	Agent Agent
	// Sampler configures the local adaptive sampler; Sampler.Threshold is
	// the monitor's local threshold and Sampler.Err its initial local
	// error allowance.
	Sampler core.Config
	// Network connects the monitor to its coordinator. Nil for standalone
	// monitors (single-node tasks, as in Fig. 5).
	Network transport.Network
	// Coordinator is the coordinator's address; required when Network is
	// set.
	Coordinator string
	// YieldEvery is the number of default intervals between yield reports
	// to the coordinator (the paper's updating period is 1000·Id). Zero
	// disables reporting (standalone monitors).
	YieldEvery int
	// HeartbeatEvery is the number of default intervals between liveness
	// heartbeats to the coordinator. Over real networks silence between
	// violations is the normal case, so the coordinator's DeadAfter
	// liveness tracking needs explicit beacons; set this well below the
	// coordinator's DeadAfter horizon. Zero disables heartbeats.
	HeartbeatEvery int
	// Metrics registers the monitor's own series in this registry: its
	// sampling operations, volley_sampler_observations_total{instance=ID}.
	// Optional.
	Metrics *obs.Registry
	// TaskMetrics are the series the monitor shares with the rest of its
	// task: interval grows and resets, the bound distribution, the mean
	// interval and rejected samples (NewTaskMetrics). Optional.
	TaskMetrics *TaskMetrics
	// Tracer records decision events: interval adaptation from the sampler
	// and local violations from the monitor. Optional.
	Tracer *obs.Tracer
	// Alerts, when set, receives each local violation as bounded
	// per-monitor context on the task's alert (alerts.ObserveLocal), so
	// an open alert names the monitors that contributed. Optional.
	Alerts *alerts.Registry
	// Gate, when set, stretches the effective sampling interval while the
	// gate is disarmed (correlation-gated monitoring: a cheap predictor
	// task arms the gate when this task's violation becomes likely). The
	// gate is consulted after the sampler adapts, so the sampler's own
	// statistics stay uncontaminated by gating. Optional.
	Gate IntervalGate
}

// Stats counts a monitor's activity.
type Stats struct {
	// Ticks is the number of default intervals elapsed.
	Ticks uint64
	// Samples is the number of sampling operations performed by the
	// adaptive loop (excluding poll-triggered samples).
	Samples uint64
	// PollSamples counts samples taken to answer global polls.
	PollSamples uint64
	// LocalViolations counts local threshold crossings observed.
	LocalViolations uint64
	// AgentErrors counts failed sampling attempts, non-finite values
	// included.
	AgentErrors uint64
	// Heartbeats counts liveness beacons sent to the coordinator.
	Heartbeats uint64
}

// Monitor is one monitor node. Tick and the message handler must be driven
// from the same goroutine (the simulation loop); the mutex exists for the
// TCP transport, whose deliveries come from receive goroutines.
type Monitor struct {
	cfg      Config
	sampler  *core.Sampler
	prefetch Prefetcher // cfg.Agent when it can start its read early, else nil

	mu        sync.Mutex
	rejected  *obs.Counter // the task's volley_agent_rejected_total; nil without TaskMetrics
	untilNext int          // ticks remaining until the next sample
	lastValue float64
	hasValue  bool
	stats     Stats

	// Yield accumulation over the current updating period.
	yieldTicks int
	sumR       float64
	sumE       float64
	sumI       float64
	yieldN     int

	// Ticks since the last heartbeat.
	hbTicks int
}

// New validates cfg, builds the monitor and registers it on the network.
func New(cfg Config) (*Monitor, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("monitor: empty ID")
	}
	if cfg.Agent == nil {
		return nil, fmt.Errorf("monitor %s: nil agent", cfg.ID)
	}
	if cfg.Network != nil && cfg.Coordinator == "" {
		return nil, fmt.Errorf("monitor %s: network without coordinator address", cfg.ID)
	}
	if cfg.YieldEvery < 0 {
		return nil, fmt.Errorf("monitor %s: negative YieldEvery", cfg.ID)
	}
	if cfg.HeartbeatEvery < 0 {
		return nil, fmt.Errorf("monitor %s: negative HeartbeatEvery", cfg.ID)
	}
	sampler, err := core.NewSampler(cfg.Sampler)
	if err != nil {
		return nil, fmt.Errorf("monitor %s: %w", cfg.ID, err)
	}
	m := &Monitor{cfg: cfg, sampler: sampler}
	m.prefetch, _ = cfg.Agent.(Prefetcher)
	// The address first: where the network refuses it, no series has been
	// registered that would have to be taken back (and could be the series of
	// the live monitor the address belongs to).
	if cfg.Network != nil {
		if err := cfg.Network.Register(cfg.ID, m.handle); err != nil {
			return nil, fmt.Errorf("monitor %s: %w", cfg.ID, err)
		}
	}
	if cfg.Metrics != nil || cfg.Tracer != nil || cfg.TaskMetrics != nil {
		o := core.SamplerObs{Tracer: cfg.Tracer, Node: cfg.ID, Task: cfg.Task}
		if cfg.Metrics != nil {
			o.Observations = cfg.Metrics.Counter(observationsName, "Adaptive sampling operations performed.", "instance", cfg.ID)
		}
		var rejected *obs.Counter
		if t := cfg.TaskMetrics; t != nil {
			o.Grows, o.Resets, o.Intervals, o.BoundDist = t.grows, t.resets, &t.intervals, t.boundDist
			rejected = t.rejected
		}
		// Under the lock handle takes: a message may already be on its way.
		m.mu.Lock()
		sampler.Instrument(o)
		m.rejected = rejected
		m.mu.Unlock()
	}
	return m, nil
}

// observationsName is the one sampler family with a series per monitor.
const observationsName = "volley_sampler_observations_total"

// TaskMetrics are the sampler series a task's monitors share, labelled
// task=<name>: what a monitor adds to the page beyond its own
// observation counter. Their totals are the sums over the task's monitors,
// and volley_sampler_interval is the monitors' mean interval, rendered at
// scrape time from a sum the samplers move only when an interval changes.
// Build one per task and hand it to each of its monitors; Remove takes the
// series off the page with the task.
type TaskMetrics struct {
	scope         obs.Scope
	grows, resets *obs.Counter
	rejected      *obs.Counter
	boundDist     *obs.Histogram
	intervals     obs.Gauge // Σ interval over the task's monitors (core.SamplerObs.Intervals)
}

// NewTaskMetrics registers the shared series of a task of the given number
// of monitors in reg (nil: detached instruments, on no page).
func NewTaskMetrics(reg *obs.Registry, task string, monitors int) *TaskMetrics {
	sc := reg.With("task", task)
	t := &TaskMetrics{
		scope:     sc,
		grows:     sc.Counter("volley_sampler_interval_grows_total", "Interval increases after a comfortable-bound streak."),
		resets:    sc.Counter("volley_sampler_interval_resets_total", "Falls back to the default interval."),
		boundDist: sc.Histogram("volley_sampler_bound_dist", "Distribution of misdetection bounds.", obs.DefBoundBuckets),
		rejected:  sc.Counter("volley_agent_rejected_total", "Non-finite values read from agents and refused as failed reads."),
	}
	// An atomic load and a division: a scrape-time function takes no lock.
	sc.GaugeFunc("volley_sampler_interval", "Mean sampling interval of the task's monitors, in default intervals.",
		func() float64 { return t.intervals.Value() / float64(monitors) })
	return t
}

// Remove takes the task's series off the page; the instruments stay usable,
// detached. Nil-safe.
func (t *TaskMetrics) Remove() {
	if t != nil {
		t.scope.Remove()
	}
}

// Close undoes New: the monitor's address is freed, where the network can
// free one, and its series leaves the metrics registry, so that a monitor
// built later under the same ID counts from zero. Its interval leaves the
// task's interval sum; the task's shared series are the task's to remove
// (TaskMetrics.Remove). A closed monitor is not ticked again.
func (m *Monitor) Close() {
	if d, ok := m.cfg.Network.(transport.Deregisterer); ok {
		_ = d.Deregister(m.cfg.ID)
	}
	m.cfg.Metrics.With("instance", m.cfg.ID).Remove()
	m.mu.Lock()
	m.sampler.Instrument(core.SamplerObs{})
	m.mu.Unlock()
}

// sampleLocked reads the agent. A value that is not finite is refused as a
// failed read, so no NaN or Inf reaches the sampler's statistics, a
// coordinator's total or an alert: it counts as an agent error and in the
// task's volley_agent_rejected_total. Caller holds m.mu.
func (m *Monitor) sampleLocked() (float64, error) {
	v, err := m.cfg.Agent.Sample()
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		m.rejected.Inc()
		err = fmt.Errorf("non-finite value %v", v)
	}
	if err != nil {
		m.stats.AgentErrors++
	}
	return v, err
}

// ID reports the monitor's address.
func (m *Monitor) ID() string { return m.cfg.ID }

// Prefetch starts the agent's read if the next Tick will sample, so that
// Tick finds the answer on its way instead of waiting a round trip for it.
// A read is only ever started that the very next Tick would have made, and
// that Tick (or a poll arriving before it) completes it: what is sampled,
// and when, does not depend on whether Prefetch was called. Where the agent
// has no such part, Prefetch does nothing and takes no lock.
func (m *Monitor) Prefetch() {
	if m.prefetch == nil {
		return
	}
	m.mu.Lock()
	if m.untilNext == 0 {
		m.prefetch.Prefetch()
	}
	m.mu.Unlock()
}

// Tick advances one default interval. It returns whether this tick
// performed a sampling operation and, if so, the sampled value.
//
// Outgoing messages are sent after the monitor's lock is released, so
// synchronous transports (the in-memory simulation network) can re-enter
// this or other monitors without deadlocking.
func (m *Monitor) Tick(now time.Duration) (sampled bool, value float64, err error) {
	// At most three messages leave a tick (heartbeat, yield report, local
	// violation), so they are collected on the stack.
	var outgoing [3]transport.Message
	n := 0

	m.mu.Lock()
	m.stats.Ticks++
	if m.cfg.Gate != nil {
		m.cfg.Gate.Tick()
	}
	if msg, ok := m.heartbeatLocked(now); ok {
		outgoing[n] = msg
		n++
	}
	if msg, ok := m.yieldReportLocked(now); ok {
		outgoing[n] = msg
		n++
	}

	if m.untilNext > 0 {
		m.untilNext--
		m.mu.Unlock()
		m.sendAll(outgoing[:n])
		return false, 0, nil
	}

	v, sampleErr := m.sampleLocked()
	if sampleErr != nil {
		// Retry at the next default interval: data gaps must not enlarge
		// silently.
		m.untilNext = 0
		m.mu.Unlock()
		m.sendAll(outgoing[:n])
		return false, 0, fmt.Errorf("monitor %s: sample: %w", m.cfg.ID, sampleErr)
	}
	m.stats.Samples++
	interval := m.sampler.Observe(v)
	if m.cfg.Gate != nil {
		interval = m.cfg.Gate.Interval(interval)
	}
	m.untilNext = interval - 1
	m.lastValue = v
	m.hasValue = true

	// Accumulate yield statistics (Section IV-B: r_i and e_i are "the
	// average of values observed on monitors within an updating period").
	m.sumR += m.sampler.CostReduction()
	m.sumE += m.sampler.ErrNeeded()
	m.sumI += float64(interval)
	m.yieldN++

	if m.sampler.Violates(v) {
		m.stats.LocalViolations++
		m.cfg.Tracer.Record(obs.Event{
			Type: obs.EventViolation, Node: m.cfg.ID, Task: m.cfg.Task,
			Time: now, Value: v, Interval: interval,
		})
		m.cfg.Alerts.ObserveLocal(m.cfg.Task, m.cfg.ID, now, v)
		outgoing[n] = transport.Message{
			Kind:  transport.KindLocalViolation,
			Task:  m.cfg.Task,
			Time:  now,
			Value: v,
		}
		n++
	}
	m.mu.Unlock()
	m.sendAll(outgoing[:n])
	return true, v, nil
}

// heartbeatLocked prepares the periodic liveness beacon. It fires on every
// HeartbeatEvery-th tick regardless of sampling activity, so a monitor
// coasting at a long interval stays visibly alive. Caller holds m.mu.
func (m *Monitor) heartbeatLocked(now time.Duration) (transport.Message, bool) {
	if m.cfg.Network == nil || m.cfg.HeartbeatEvery == 0 {
		return transport.Message{}, false
	}
	m.hbTicks++
	if m.hbTicks < m.cfg.HeartbeatEvery {
		return transport.Message{}, false
	}
	m.hbTicks = 0
	m.stats.Heartbeats++
	return transport.Message{
		Kind:  transport.KindHeartbeat,
		Task:  m.cfg.Task,
		Time:  now,
		Value: m.lastValue,
	}, true
}

// yieldReportLocked prepares the periodic yield report. Caller holds m.mu.
func (m *Monitor) yieldReportLocked(now time.Duration) (transport.Message, bool) {
	if m.cfg.Network == nil || m.cfg.YieldEvery == 0 {
		return transport.Message{}, false
	}
	m.yieldTicks++
	if m.yieldTicks < m.cfg.YieldEvery {
		return transport.Message{}, false
	}
	m.yieldTicks = 0
	if m.yieldN == 0 {
		return transport.Message{}, false
	}
	msg := transport.Message{
		Kind:      transport.KindYieldReport,
		Task:      m.cfg.Task,
		Time:      now,
		Reduction: m.sumR / float64(m.yieldN),
		Needed:    m.sumE / float64(m.yieldN),
		Interval:  m.sumI / float64(m.yieldN),
	}
	m.sumR, m.sumE, m.sumI, m.yieldN = 0, 0, 0, 0
	return msg, true
}

// sendAll delivers queued messages to the coordinator. Delivery failures
// are the coordinator's problem to tolerate (polls expire); the monitor
// must keep sampling regardless.
func (m *Monitor) sendAll(msgs []transport.Message) {
	if m.cfg.Network == nil {
		return
	}
	for _, msg := range msgs {
		_ = m.cfg.Network.Send(m.cfg.ID, m.cfg.Coordinator, msg)
	}
}

// handle processes coordinator messages.
func (m *Monitor) handle(msg transport.Message) {
	switch msg.Kind {
	case transport.KindPollRequest:
		m.mu.Lock()
		v, err := m.sampleLocked()
		if err != nil {
			// Fall back to the last known value so the poll can complete.
			v = m.lastValue
			if !m.hasValue {
				m.mu.Unlock()
				return
			}
		} else {
			m.stats.PollSamples++
		}
		net, id, coord, taskID := m.cfg.Network, m.cfg.ID, m.cfg.Coordinator, m.cfg.Task
		m.mu.Unlock()
		_ = net.Send(id, coord, transport.Message{
			Kind:  transport.KindPollResponse,
			Task:  taskID,
			Time:  msg.Time,
			Value: v,
		})
	case transport.KindErrAssignment:
		m.mu.Lock()
		defer m.mu.Unlock()
		if math.IsNaN(msg.Err) {
			return
		}
		// Invalid assignments are ignored; the previous allowance stands.
		_ = m.sampler.SetErr(msg.Err)
	default:
		// Other kinds are coordinator-bound; ignore.
	}
}

// Wake schedules a sampling operation for the monitor's next tick,
// cutting short the current (possibly gate-relaxed) gap. The control plane
// calls it when a predictor's violation arms this monitor's gate, so a
// freshly armed monitor samples immediately instead of waiting out the
// remainder of its relaxed interval.
func (m *Monitor) Wake() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.untilNext = 0
}

// Violates reports whether a value crosses the monitor's local threshold
// in the sampler's configured direction.
func (m *Monitor) Violates(v float64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sampler.Violates(v)
}

// Interval reports the sampler's current interval in default intervals.
func (m *Monitor) Interval() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sampler.Interval()
}

// SetLocalThreshold retunes the sampler's local threshold at runtime — the
// monitor-side half of a task update (the coordinator pushes the new error
// allowance over the wire; local thresholds have no wire message, so the
// control plane that owns both sides sets them directly).
func (m *Monitor) SetLocalThreshold(t float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.sampler.SetThreshold(t); err != nil {
		return fmt.Errorf("monitor %s: %w", m.cfg.ID, err)
	}
	return nil
}

// ErrAllowance reports the sampler's current local error allowance.
func (m *Monitor) ErrAllowance() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sampler.Err()
}

// Bound reports the sampler's last mis-detection bound β̄(I).
func (m *Monitor) Bound() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sampler.Bound()
}

// Stats returns a snapshot of the monitor's counters.
func (m *Monitor) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// SamplingRatio reports performed samples over elapsed ticks (1.0 =
// periodical sampling at the default interval). NaN before the first tick.
func (m *Monitor) SamplingRatio() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stats.Ticks == 0 {
		return math.NaN()
	}
	return float64(m.stats.Samples) / float64(m.stats.Ticks)
}

// Explanation is one monitor's state as GET /tasks/{name}/explain reports
// it: why it samples as often as it does.
type Explanation struct {
	ID string `json:"id"`
	// Interval is the sampler's current interval in default intervals;
	// Bound the misdetection bound that last decided it, against the
	// monitor's share Err of the task's allowance.
	Interval int     `json:"interval"`
	Bound    float64 `json:"bound"`
	Err      float64 `json:"err"`
	// Threshold is the monitor's local threshold.
	Threshold       float64 `json:"threshold"`
	Samples         uint64  `json:"samples"`
	Ticks           uint64  `json:"ticks"`
	LocalViolations uint64  `json:"localViolations"`
	AgentErrors     uint64  `json:"agentErrors"`
}

// Explain reports the monitor's state, all of it read under one lock.
func (m *Monitor) Explain() Explanation {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Explanation{
		ID:              m.cfg.ID,
		Interval:        m.sampler.Interval(),
		Bound:           m.sampler.Bound(),
		Err:             m.sampler.Err(),
		Threshold:       m.sampler.Threshold(),
		Samples:         m.stats.Samples,
		Ticks:           m.stats.Ticks,
		LocalViolations: m.stats.LocalViolations,
		AgentErrors:     m.stats.AgentErrors,
	}
}
