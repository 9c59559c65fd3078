// The steady-state tick shared by cluster mode and shard mode: the set of
// hosted monitors the HTTP handlers and the cluster node mutate, and the
// flat plan the tick loop walks, rebuilt only when that set has changed
// (DESIGN.md §9, "The steady-state tick").
package main

import (
	"slices"
	"time"

	"volley"
)

// hostedSet is the monitors a daemon hosts, by task, in admission order. The
// daemon's mu guards it. gen moves whenever the set changes — put and remove
// are its only writers — which is how the loop's tickPlan learns it is stale.
type hostedSet struct {
	gen   uint64
	order []string // task names, oldest admission first
	mons  map[string][]*volley.Monitor
}

func newHostedSet() hostedSet {
	return hostedSet{mons: make(map[string][]*volley.Monitor)}
}

// put hosts a task's monitors, at the end of the order unless the task is
// already hosted.
func (h *hostedSet) put(name string, mons []*volley.Monitor) {
	if _, ok := h.mons[name]; !ok {
		h.order = append(h.order, name)
	}
	h.mons[name] = mons
	h.gen++
}

// remove stops hosting a task and returns the monitors it had.
func (h *hostedSet) remove(name string) []*volley.Monitor {
	mons, ok := h.mons[name]
	if !ok {
		return nil
	}
	delete(h.mons, name)
	i := slices.Index(h.order, name)
	h.order = slices.Delete(h.order, i, i+1)
	h.gen++
	return mons
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
	sks    []*volley.StreamingThresholds // empty when the daemon keeps no sketches
	gates  []*volley.Gate                // nil where ungated; empty when nothing is gated
	task   []int32                       // index of the monitor's task in hostedSet.order
	values []float64                     // this tick's sampled values
	fed    []bool                        // whether values[i] was sampled this tick

	// Per task, index-aligned with hostedSet.order.
	pred     []int32 // the task's gate predictor, -1 when it has none
	violated []bool  // fan-out scratch: the task saw a local violation this tick
	gating   bool    // some task is gated: the tick ends with a fan-out
}

// refresh rebuilds the plan in place from the hosted set. sketches, gates and
// gatePred are the cluster daemon's per-task maps; shard mode keeps none and
// passes nil. The caller holds the locks guarding all four.
func (p *tickPlan) refresh(h *hostedSet, sketches map[string][]*volley.StreamingThresholds,
	gates map[string][]*volley.Gate, gatePred map[string]string) {
	p.gen = h.gen
	p.ticks, p.origin = 0, 0
	if len(h.order) > 0 {
		p.origin = len(h.mons[h.order[0]])
	}
	p.gating = len(gatePred) > 0
	// Zero before truncating so an evicted task's monitors do not stay
	// reachable from the tails of the backing arrays.
	clear(p.mons)
	clear(p.sks)
	clear(p.gates)
	p.mons, p.sks, p.gates, p.task, p.pred = p.mons[:0], p.sks[:0], p.gates[:0], p.task[:0], p.pred[:0]
	for t, name := range h.order {
		ms := h.mons[name]
		p.mons = append(p.mons, ms...)
		for range ms {
			p.task = append(p.task, int32(t))
		}
		if sketches != nil {
			p.sks = append(p.sks, sketches[name]...)
		}
		if p.gating {
			if gs := gates[name]; gs != nil {
				p.gates = append(p.gates, gs...)
			} else {
				p.gates = append(p.gates, make([]*volley.Gate, len(ms))...)
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
	index := make(map[string]int32, len(h.order))
	for t, name := range h.order {
		index[name] = int32(t)
	}
	for _, name := range h.order {
		pred := int32(-1)
		if predName, gated := gatePred[name]; gated {
			// Evicting a predictor unlinks its dependents, so a linked
			// predictor is always hosted.
			pred = index[predName]
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
// what each sampled for the sketch feed and the gate fan-out. Agent failures
// are retried at the next interval and already counted in the monitor's own
// stats.
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
