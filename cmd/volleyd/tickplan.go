// The part of volleyd the two cluster modes share: the tasks a daemon hosts,
// the builder that makes their monitors, the virtual clock, and the one tick
// that drives them — over a flat plan rebuilt only when the hosted set has
// changed (DESIGN.md §9, "The steady-state tick").
package main

import (
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"volley"
)

// hostedTask is what a daemon keeps for one task it hosts. The slices are
// per monitor, index-aligned, and never change once the task is hosted.
type hostedTask struct {
	mons    []*volley.Monitor
	agents  []volley.Agent             // what mons read, released with them
	metrics *volley.MonitorTaskMetrics // the sampler series the monitors share
	gates   []*volley.Gate             // nil unless the task was admitted gated
	// pred is the hosted task whose local violations arm gates: "" when the
	// task is not gated, and again once its predictor is evicted — the gates
	// stay with their monitors, nothing arms them any more.
	pred string
}

// hostedSet is the tasks a daemon hosts, in admission order. gen moves
// whenever the set changes — put and remove are its only writers — which is
// how the loop's tickPlan learns it is stale.
type hostedSet struct {
	gen   uint64
	order []string // task names, oldest admission first
	tasks map[string]hostedTask
}

func newHostedSet() hostedSet {
	return hostedSet{tasks: make(map[string]hostedTask)}
}

// put hosts a task, at the end of the order unless it is already hosted.
func (h *hostedSet) put(name string, t hostedTask) {
	if _, ok := h.tasks[name]; !ok {
		h.order = append(h.order, name)
	}
	h.tasks[name] = t
	h.gen++
}

// remove stops hosting a task, unlinks the tasks gated on it, and returns
// what was hosted for it.
func (h *hostedSet) remove(name string) hostedTask {
	t, ok := h.tasks[name]
	if !ok {
		return t
	}
	delete(h.tasks, name)
	i := slices.Index(h.order, name)
	h.order = slices.Delete(h.order, i, i+1)
	for dep, dt := range h.tasks {
		if dt.pred == name {
			dt.pred = ""
			h.tasks[dep] = dt
		}
	}
	h.gen++
	return t
}

// tickPlan is a hostedSet flattened for the tick loop: one entry per hosted
// monitor, tasks in admission order, so a tick walks slices instead of
// rebuilding them from maps. Each tick starts its walk at a different entry
// (tickMonitors), which makes the order monitors are visited in a function
// of the admissions and the ticks since the last one alone: daemons given
// the same admissions tick alike. The plan belongs to the goroutine that ticks; only
// refresh, called with the daemon's locks held, reads shared state. A
// steady-state tick allocates nothing here.
type tickPlan struct {
	gen    uint64 // hostedSet.gen this plan was built from
	origin int    // entry just past the oldest task's monitors
	ticks  uint32 // ticks since the plan was built, which place the next walk's start

	// Per monitor, index-aligned.
	mons   []*volley.Monitor
	gates  []*volley.Gate // nil where ungated; empty when nothing is gated
	task   []int32        // index of the monitor's task in hostedSet.order
	values []float64      // this tick's sampled values, for the gate fan-out
	fed    []bool         // whether values[i] was sampled this tick

	// Per task, index-aligned with hostedSet.order.
	pred     []int32 // the task's gate predictor, -1 when it has none
	violated []bool  // fan-out scratch: the task saw a local violation this tick
	gating   bool    // some task is gated: the tick ends with a fan-out

	index map[string]int32 // refresh's scratch: task name → index in hostedSet.order
}

// refresh rebuilds the plan in place from the hosted set, whose lock the
// caller holds.
func (p *tickPlan) refresh(h *hostedSet) {
	p.gen = h.gen
	p.ticks, p.origin = 0, 0
	if len(h.order) > 0 {
		p.origin = len(h.tasks[h.order[0]].mons)
	}
	p.gating = false
	for _, name := range h.order {
		p.gating = p.gating || h.tasks[name].pred != ""
	}
	// Zero before truncating so an evicted task's monitors do not stay
	// reachable from the tails of the backing arrays.
	clear(p.mons)
	clear(p.gates)
	p.mons, p.gates, p.task, p.pred = p.mons[:0], p.gates[:0], p.task[:0], p.pred[:0]
	for t, name := range h.order {
		ht := h.tasks[name]
		p.mons = append(p.mons, ht.mons...)
		for range ht.mons {
			p.task = append(p.task, int32(t))
		}
		if p.gating {
			if ht.gates != nil {
				p.gates = append(p.gates, ht.gates...)
			} else {
				p.gates = append(p.gates, make([]*volley.Gate, len(ht.mons))...)
			}
		}
	}
	p.values = resized(p.values, len(p.mons))
	p.fed = resized(p.fed, len(p.mons))
	p.violated = resized(p.violated, len(h.order))
	clear(p.violated)
	if !p.gating {
		return
	}
	// Kept across refreshes, so an admission does not leave behind a map of
	// every task hosted before it.
	if p.index == nil {
		p.index = make(map[string]int32, len(h.order))
	}
	clear(p.index)
	for t, name := range h.order {
		p.index[name] = int32(t)
	}
	for _, name := range h.order {
		pred := int32(-1)
		if predName := h.tasks[name].pred; predName != "" {
			// Evicting a predictor unlinks its dependents, so a linked
			// predictor is always hosted.
			pred = p.index[predName]
		}
		p.pred = append(p.pred, pred)
	}
}

// resized returns s with length n, reusing its backing array when that is
// large enough. The contents are unspecified.
func resized[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// tickMonitors advances every hosted monitor one default interval and keeps
// what each sampled for the gate fan-out. Agent failures are retried at the
// next interval and already counted in the monitor's own stats.
//
// The walk is the plan's order taken cyclically from a start that moves
// every tick, so over a run each monitor is read at every phase of the tick,
// as it was when the order came from a map: no task always waits for all the
// others, and nothing that watches one monitor to time the ticks (the
// benchmark's canary) reads a constant offset to the rest. A rebuilt plan
// starts its first walk just past the oldest task, so the tasks that have
// waited least for a sample go first; each later walk starts a golden-ratio
// stride further on (multiplying by 2^32/φ spreads consecutive tick numbers
// evenly over the plan).
//
// Where monitors read agents that can start a read early (HTTP), the walk
// keeps those reads issued for the agentWindow entries it is about to reach,
// the one being ticked included: a monitor's request is out while the ones
// before it are ticked, so a tick waits for the slowest of a window and not
// for the sum of all. Ahead is measured in entries of the walk, not in time
// from the start of the tick, so every monitor is still read at its own place
// in the walk (issuing everything up front would pin them all to phase 0), a
// value is at most agentWindow entries old when its Tick consumes it, and no
// more than agentWindow reads are out at once. Every read issued is consumed
// by its monitor's Tick in this same walk — Monitor.Prefetch only starts what
// that Tick will ask for — so none is in flight when the walk returns.
func (p *tickPlan) tickMonitors(now time.Duration) {
	n := len(p.mons)
	start := 0
	if n > 0 {
		start = (p.origin + int(uint64(p.ticks*2654435769)*uint64(n)>>32)) % n
	}
	p.ticks++
	// k and issued count entries of the walk, which i and j, wrapping, turn
	// into plan entries: i is the one to tick, j the next to look ahead at.
	i, j, issued := start, start, 0
	for k := 0; k < n; k++ {
		for ; issued < n && issued < k+agentWindow; issued++ {
			p.mons[j].Prefetch() // returns at once where the agent reads in-process
			if j++; j == n {
				j = 0
			}
		}
		p.tickMonitor(i, now)
		if i++; i == n {
			i = 0
		}
	}
}

func (p *tickPlan) tickMonitor(i int, now time.Duration) {
	sampled, v, err := p.mons[i].Tick(now)
	p.fed[i] = sampled && err == nil
	p.values[i] = v
}

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
	hosted hostedSet

	// plan is the hosted set flattened for tickOnce; it belongs to the
	// goroutine that ticks.
	plan tickPlan
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
		hosted: newHostedSet(),

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
	mons := h.hosted.tasks[name].mons
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
	t := h.hosted.remove(name)
	for _, m := range t.mons {
		m.Close()
	}
	t.metrics.Remove()
	h.releaseAgents(t.agents)
}

// buildMonitors builds a task's monitors, one per agent, registered on the
// host's network under spec.Monitors and reporting to coord, and the task's
// shared sampler series they count in. gates is nil or holds one gate per
// monitor; maxInterval 0 means the daemon's -max-interval. The task takes the
// agents over: on an error they are released and nothing stays registered,
// on the network or in the metrics.
func (h *monitorHost) buildMonitors(spec volley.ClusterTaskSpec, maxInterval int,
	agents []volley.Agent, coord string, gates []*volley.Gate) (hostedTask, error) {
	if len(agents) == 0 || len(agents) != len(spec.Monitors) {
		h.releaseAgents(agents)
		return hostedTask{}, fmt.Errorf("task %q has %d monitor sources for %d monitors", spec.Name, len(agents), len(spec.Monitors))
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
			return hostedTask{}, err
		}
	}
	return hostedTask{mons: mons, agents: agents, metrics: metrics, gates: gates}, nil
}

// tickOnce is one tick: the control plane, then every hosted monitor, then
// the gate fan-out where some task is gated. While the hosted set is
// unchanged a tick takes mu once, compares one integer and allocates nothing.
func (h *monitorHost) tickOnce() {
	p := &h.plan
	now := h.clock.advance()
	// The control plane first: what it starts and stops (shard mode's
	// StartTask/StopTask) settles before the monitor pass looks at the set.
	began := time.Now()
	h.control(now)
	h.controlTime.Observe(time.Since(began).Seconds())
	h.mu.Lock()
	if p.gen != h.hosted.gen {
		p.refresh(&h.hosted)
	}
	h.mu.Unlock()
	p.tickMonitors(now)
	if p.gating {
		h.fanOutGateSignals(p)
	}
	h.agents.sweep(time.Now())
}

// fanOutGateSignals arms the correlation gates of every task whose
// predictor observed a local violation this tick: the gates hold down at
// the adaptive interval and monitors still relaxed are woken so they
// sample on the very next tick instead of finishing a stretched-out
// countdown first (the scheduler's predictor-wakes-target semantics,
// applied across admitted tasks). It works on the plan alone, so a task
// evicted since the plan was refreshed is still signalled this once; and
// only here and in Monitor.Tick, both on the tick goroutine, are gates ever
// touched once built, which is Gate's single-goroutine contract.
func (h *monitorHost) fanOutGateSignals(p *tickPlan) {
	fired := false
	for i, m := range p.mons {
		if p.fed[i] && m.Violates(p.values[i]) {
			p.violated[p.task[i]] = true
			fired = true
		}
	}
	if !fired {
		return
	}
	for i, g := range p.gates {
		if g == nil {
			continue
		}
		if pred := p.pred[p.task[i]]; pred < 0 || !p.violated[pred] {
			continue
		}
		if !g.Armed() {
			h.gateArms.Inc()
			p.mons[i].Wake()
		}
		g.Signal(true)
	}
	clear(p.violated)
}
