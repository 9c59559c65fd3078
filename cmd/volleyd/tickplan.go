// The part of volleyd the two cluster modes share: the tasks a daemon hosts,
// the builder that makes their monitors, the virtual clock, and the one tick
// that drives them — the control plane, then internal/host's plan, rebuilt
// only when the hosted set has changed (DESIGN.md §9, "The steady-state
// tick").
package main

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"volley"
	"volley/internal/host"
)

// virtualClock is the cluster modes' time base: tick count × -interval, the
// one the simulation harness uses, so horizons configured in ticks never skew
// with wall-clock jitter. The k-th tick, from 0, happens at
// (origin+k)×interval; the origin is the mode's, so each mode's alerts carry
// the stamps they always did.
type virtualClock struct {
	interval time.Duration
	origin   uint64
	begun    atomic.Uint64 // ticks begun
}

// advance begins a tick and returns its time.
func (c *virtualClock) advance() time.Duration {
	return time.Duration(c.origin+c.begun.Add(1)-1) * c.interval
}

// last is the time of the latest tick begun, 0 before the first: what alert
// lifecycle operations arriving over HTTP are stamped with.
func (c *virtualClock) last() time.Duration {
	k := c.begun.Load()
	if k == 0 {
		return 0
	}
	return time.Duration(c.origin+k-1) * c.interval
}

// controlPlaneBuckets are the volley_stage_seconds bounds for the control
// plane's tick: a converged one — coordinators with nothing to poll or
// rebalance, no beacon or snapshot due — takes a few microseconds, one that
// rebalances a few thousand tasks or takes over a dead shard's milliseconds,
// and a tick is late long before a second.
var controlPlaneBuckets = []float64{1e-6, 2.5e-6, 5e-6, 10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3, 1}

// monitorHost is the runtime under both cluster modes: the in-process network
// hosted monitors and their coordinators talk over, the hosted set, the clock
// and the tick. The mode fills in control.
type monitorHost struct {
	*daemon
	net     *volley.MemoryNetwork
	control func(now time.Duration) // the control plane's Tick: Cluster's or Node's
	// controlTime is volley_stage_seconds{stage="control_plane"}: one
	// observation per tick, the time control took.
	controlTime *volley.Histogram
	gateArms    *volley.Counter // nil in the mode that admits no gated task
	clock       virtualClock

	// mu guards hosted.
	mu     sync.Mutex
	hosted host.Set

	// plan is the hosted set flattened for tickOnce; it belongs to the
	// goroutine that ticks.
	plan host.Plan
}

// newMonitorHost builds the daemon core and an empty host on top of it; origin
// is the virtual clock's.
func newMonitorHost(opts options, node string, origin uint64) (*monitorHost, error) {
	d, err := newDaemon(opts, node)
	if err != nil {
		return nil, err
	}
	h := &monitorHost{
		daemon: d,
		net:    volley.NewMemoryNetwork(),
		clock:  virtualClock{interval: opts.interval, origin: origin},

		controlTime: d.reg.Histogram("volley_stage_seconds", stageSecondsHelp, controlPlaneBuckets, "stage", "control_plane"),
	}
	h.now = h.clock.last
	return h, nil
}

// routes adds what both cluster modes serve over the hosted set to the
// daemon's routes.
func (h *monitorHost) routes() *http.ServeMux {
	mux := h.daemon.routes()
	mux.HandleFunc("GET /tasks/{name}/explain", h.handleExplain)
	return mux
}

// handleExplain answers GET /tasks/{name}/explain with the state of each
// monitor hosted here for the task (Monitor.Explain): interval, last bound,
// allowance share, local threshold and counters. 404 where the task is not
// hosted here. Only the slice header is read under mu — a hosted task's
// slices never change — and each monitor then under its own lock.
func (h *monitorHost) handleExplain(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	h.mu.Lock()
	mons := h.hosted.Task(name).Mons
	h.mu.Unlock()
	if len(mons) == 0 {
		httpError(w, http.StatusNotFound, fmt.Errorf("task %q not hosted here", name))
		return
	}
	out := make([]volley.MonitorExplanation, len(mons))
	for i, m := range mons {
		out[i] = m.Explain()
	}
	writeJSON(w, map[string]any{"name": name, "monitors": out})
}

// unhost stops hosting a task and closes its monitors: their addresses on the
// network are freed, their series, and the task's, leave /metrics, and their
// agents are released. The caller holds mu.
func (h *monitorHost) unhost(name string) {
	t := h.hosted.Remove(name)
	for _, m := range t.Mons {
		m.Close()
	}
	t.Metrics.Remove()
	h.releaseAgents(t.Agents)
}

// buildMonitors builds a task's monitors, one per agent, registered on the
// host's network under spec.Monitors and reporting to coord, and the task's
// shared sampler series they count in. gates is nil or holds one gate per
// monitor; maxInterval 0 means the daemon's -max-interval. The task takes the
// agents over: on an error they are released and nothing stays registered,
// on the network or in the metrics.
func (h *monitorHost) buildMonitors(spec volley.ClusterTaskSpec, maxInterval int,
	agents []volley.Agent, coord string, gates []*volley.Gate) (host.Task, error) {
	if len(agents) == 0 || len(agents) != len(spec.Monitors) {
		h.releaseAgents(agents)
		return host.Task{}, fmt.Errorf("task %q has %d monitor sources for %d monitors", spec.Name, len(agents), len(spec.Monitors))
	}
	n := float64(len(agents))
	metrics := volley.NewMonitorTaskMetrics(h.reg, spec.Name, len(agents))
	mons := make([]*volley.Monitor, len(agents))
	for i, addr := range spec.Monitors {
		cfg := volley.MonitorConfig{
			ID:    addr,
			Task:  spec.Name,
			Agent: agents[i],
			Sampler: volley.SamplerConfig{
				// The local task decomposition: an even split of the global
				// threshold and allowance; the coordinator re-tunes the
				// allowance shares from yield reports as the run learns.
				Threshold:   spec.Threshold / n,
				Direction:   spec.Direction,
				Err:         spec.Err / n,
				MaxInterval: h.maxIntervalOr(maxInterval),
			},
			Network:        h.net,
			Coordinator:    coord,
			YieldEvery:     100,
			HeartbeatEvery: 10,
			Metrics:        h.reg,
			TaskMetrics:    metrics,
			Tracer:         h.tracer,
			Alerts:         h.alertReg,
		}
		if gates != nil {
			// Assign through the concrete slice only when gated: a nil
			// *Gate stored in the interface field would be a non-nil
			// IntervalGate and the monitor would call through it.
			cfg.Gate = gates[i]
		}
		var err error
		if mons[i], err = volley.NewMonitor(cfg); err != nil {
			for _, m := range mons[:i] {
				m.Close()
			}
			metrics.Remove()
			h.releaseAgents(agents)
			return host.Task{}, err
		}
	}
	return host.Task{Mons: mons, Agents: agents, Metrics: metrics, Gates: gates}, nil
}

// tickOnce is one tick: the control plane, then the hosted plan's tick —
// every hosted monitor, then the gate fan-out where some task is gated.
// While the hosted set is unchanged a tick takes mu once, compares one
// integer and allocates nothing.
func (h *monitorHost) tickOnce() {
	now := h.clock.advance()
	// The control plane first: what it starts and stops (shard mode's
	// StartTask/StopTask) settles before the monitor pass looks at the set.
	began := time.Now()
	h.control(now)
	h.controlTime.Observe(time.Since(began).Seconds())
	h.mu.Lock()
	h.plan.Sync(&h.hosted)
	h.mu.Unlock()
	// Agent failures are retried at the next interval and already counted
	// in the monitors' own stats.
	if arms, _ := h.plan.Tick(now); arms > 0 {
		h.gateArms.Add(uint64(arms))
	}
	h.agents.sweep(time.Now())
}
