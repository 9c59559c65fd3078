// Package host is the one executor for hosted monitors: the set of tasks a
// process hosts, the flat plan a tick walks, and the tick itself — every
// monitor advanced one default interval in a rotating order, then the
// correlation gates of the tasks whose predictor saw a local violation
// armed (DESIGN.md §9, "The steady-state tick"). volleyd's two cluster
// modes, the library's Deployment, and the figure harness's distributed and
// gated runs all drive it; what differs between them is only the control
// step each runs before the plan's tick (a coordinator's, a cluster's or a
// shard's) and what it does with the arm count the tick returns.
package host

import (
	"slices"
	"time"

	"volley/internal/correlation"
	"volley/internal/monitor"
)

// ReadAhead is how many plan entries ahead of the monitor being ticked the
// walk keeps agent reads issued (Plan.Tick), and so the most reads it has
// out at once. A constant, not a setting; DESIGN.md has the measurements
// that chose it.
const ReadAhead = 16

// Task is what a host keeps for one task. The slices are per monitor,
// index-aligned, and never change once the task is hosted.
type Task struct {
	Mons    []*monitor.Monitor
	Agents  []monitor.Agent      // what Mons read, for the owner to release with them; optional
	Metrics *monitor.TaskMetrics // the sampler series Mons share; optional
	Gates   []*correlation.Gate  // nil unless the task is gated
	// Pred is the hosted task whose local violations arm Gates: "" when the
	// task is not gated, and again once its predictor is removed — the gates
	// stay with their monitors, nothing arms them any more.
	Pred string
}

// Set is the tasks a host hosts, in admission order. Its generation moves
// whenever the set changes — Put and Remove are its only writers — which is
// how a Plan learns it is stale. The zero Set is empty and ready to use.
type Set struct {
	gen   uint64
	order []string // task names, oldest admission first
	tasks map[string]Task
}

// Put hosts a task, at the end of the order unless it is already hosted.
func (s *Set) Put(name string, t Task) {
	if s.tasks == nil {
		s.tasks = make(map[string]Task)
	}
	if _, ok := s.tasks[name]; !ok {
		s.order = append(s.order, name)
	}
	s.tasks[name] = t
	s.gen++
}

// Remove stops hosting a task, unlinks the tasks gated on it, and returns
// what was hosted for it.
func (s *Set) Remove(name string) Task {
	t, ok := s.tasks[name]
	if !ok {
		return t
	}
	delete(s.tasks, name)
	i := slices.Index(s.order, name)
	s.order = slices.Delete(s.order, i, i+1)
	for dep, dt := range s.tasks {
		if dt.Pred == name {
			dt.Pred = ""
			s.tasks[dep] = dt
		}
	}
	s.gen++
	return t
}

// Task reports what is hosted for a task; the zero Task when it is not.
func (s *Set) Task(name string) Task { return s.tasks[name] }

// Names lists the hosted tasks in admission order.
func (s *Set) Names() []string { return slices.Clone(s.order) }

// Gen is the set's generation: it moves on every Put and Remove.
func (s *Set) Gen() uint64 { return s.gen }

// Plan is a Set flattened for the tick: one entry per hosted monitor, tasks
// in admission order, so a tick walks slices instead of rebuilding them from
// maps. Each tick starts its walk at a different entry, which makes the
// order monitors are visited in a function of the admissions and the ticks
// since the last one alone: hosts given the same admissions tick alike. The
// plan belongs to the goroutine that ticks; only Sync and Refresh, called
// with whatever lock guards the Set held, read shared state. A steady-state
// tick allocates nothing here.
type Plan struct {
	gen    uint64 // Set.gen this plan was built from
	origin int    // entry just past the oldest task's monitors
	ticks  uint32 // ticks since the plan was built, which place the next walk's start

	// Per monitor, index-aligned.
	mons   []*monitor.Monitor
	gates  []*correlation.Gate // nil where ungated; empty when nothing is gated
	task   []int32             // index of the monitor's task in Set.order
	values []float64           // this tick's sampled values, for the gate fan-out
	fed    []bool              // whether values[i] was sampled this tick

	// Per task, index-aligned with Set.order.
	pred     []int32 // the task's gate predictor, -1 when it has none
	violated []bool  // fan-out scratch: the task saw a local violation this tick
	gating   bool    // some task is gated: the tick ends with a fan-out

	index map[string]int32 // Refresh's scratch: task name → index in Set.order
}

// Sync rebuilds the plan when the set has changed since it was last built;
// while it has not, Sync compares one integer.
func (p *Plan) Sync(s *Set) {
	if p.gen != s.gen {
		p.Refresh(s)
	}
}

// Refresh rebuilds the plan in place from the set.
func (p *Plan) Refresh(s *Set) {
	p.gen = s.gen
	p.ticks, p.origin = 0, 0
	if len(s.order) > 0 {
		p.origin = len(s.tasks[s.order[0]].Mons)
	}
	p.gating = false
	for _, name := range s.order {
		p.gating = p.gating || s.tasks[name].Pred != ""
	}
	// Zero before truncating so a removed task's monitors do not stay
	// reachable from the tails of the backing arrays.
	clear(p.mons)
	clear(p.gates)
	p.mons, p.gates, p.task, p.pred = p.mons[:0], p.gates[:0], p.task[:0], p.pred[:0]
	for t, name := range s.order {
		ht := s.tasks[name]
		p.mons = append(p.mons, ht.Mons...)
		for range ht.Mons {
			p.task = append(p.task, int32(t))
		}
		if p.gating {
			if ht.Gates != nil {
				p.gates = append(p.gates, ht.Gates...)
			} else {
				p.gates = append(p.gates, make([]*correlation.Gate, len(ht.Mons))...)
			}
		}
	}
	p.values = resized(p.values, len(p.mons))
	p.fed = resized(p.fed, len(p.mons))
	p.violated = resized(p.violated, len(s.order))
	clear(p.violated)
	if !p.gating {
		return
	}
	// Kept across refreshes, so an admission does not leave behind a map of
	// every task hosted before it.
	if p.index == nil {
		p.index = make(map[string]int32, len(s.order))
	}
	clear(p.index)
	for t, name := range s.order {
		p.index[name] = int32(t)
	}
	for _, name := range s.order {
		pred := int32(-1)
		if predName := s.tasks[name].Pred; predName != "" {
			// Removing a predictor unlinks its dependents, so a linked
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

// Gen is the generation of the Set the plan was last built from.
func (p *Plan) Gen() uint64 { return p.gen }

// Len is the number of monitors the plan walks.
func (p *Plan) Len() int { return len(p.mons) }

// Entry reports the plan's i-th monitor and what it sampled on the last
// tick: the value, and whether it sampled one.
func (p *Plan) Entry(i int) (m *monitor.Monitor, v float64, sampled bool) {
	return p.mons[i], p.values[i], p.fed[i]
}

// Tick advances every monitor of the plan one default interval, then arms
// the gates of every task whose predictor observed a local violation on
// this tick. It returns how many gates went from relaxed to armed, and the
// first agent failure of the walk; a failed read is retried at the next
// interval and already counted in the monitor's own stats.
//
// The walk is the plan's order taken cyclically from a start that moves
// every tick, so over a run each monitor is read at every phase of the
// tick: no task always waits for all the others, and nothing that watches
// one monitor to time the ticks reads a constant offset to the rest. A
// rebuilt plan starts its first walk just past the oldest task, so the
// tasks that have waited least for a sample go first; each later walk
// starts a golden-ratio stride further on (multiplying by 2^32/φ spreads
// consecutive tick numbers evenly over the plan).
//
// Where monitors read agents that can start a read early
// (monitor.Prefetcher), the walk keeps those reads issued for the ReadAhead
// entries it is about to reach, the one being ticked included: a monitor's
// request is out while the ones before it are ticked, so a tick waits for
// the slowest of a window and not for the sum of all. Ahead is measured in
// entries of the walk, not in time from the start of the tick, so every
// monitor is still read at its own place in the walk, a value is at most
// ReadAhead entries old when its Tick consumes it, and no more than
// ReadAhead reads are out at once. Every read issued is consumed by its
// monitor's Tick in this same walk — Monitor.Prefetch only starts what that
// Tick will ask for — so none is in flight when Tick returns.
func (p *Plan) Tick(now time.Duration) (arms int, err error) {
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
		for ; issued < n && issued < k+ReadAhead; issued++ {
			p.mons[j].Prefetch() // returns at once where the agent reads in-process
			if j++; j == n {
				j = 0
			}
		}
		sampled, v, tickErr := p.mons[i].Tick(now)
		if tickErr != nil && err == nil {
			err = tickErr
		}
		p.fed[i] = sampled && tickErr == nil
		p.values[i] = v
		if i++; i == n {
			i = 0
		}
	}
	if p.gating {
		arms = p.fanOut()
	}
	return arms, err
}

// fanOut arms the correlation gates of every task whose predictor observed
// a local violation on this tick: the gates hold down at the adaptive
// interval, and monitors still relaxed are woken so they sample on the next
// tick instead of finishing a stretched-out countdown first. Arming comes
// after the whole walk, so a woken monitor samples on the next tick even
// where it was walked after its predictor. It works on the plan alone, so a
// task removed since the plan was refreshed is still signalled this once;
// and only here and in Monitor.Tick, both on the tick goroutine, are gates
// ever touched once built, which is Gate's single-goroutine contract.
func (p *Plan) fanOut() (arms int) {
	fired := false
	for i, m := range p.mons {
		if p.fed[i] && m.Violates(p.values[i]) {
			p.violated[p.task[i]] = true
			fired = true
		}
	}
	if !fired {
		return 0
	}
	for i, g := range p.gates {
		if g == nil {
			continue
		}
		if pred := p.pred[p.task[i]]; pred < 0 || !p.violated[pred] {
			continue
		}
		if !g.Armed() {
			arms++
			p.mons[i].Wake()
		}
		g.Signal(true)
	}
	clear(p.violated)
	return arms
}
