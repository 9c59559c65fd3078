package cluster

import (
	"time"

	"volley/internal/coord"
	"volley/internal/obs"
)

// Replication cadence defaults, in ticks of the driving loop.
const (
	// DefaultSnapshotEvery is the base period between fresh snapshot ships
	// per owned task.
	DefaultSnapshotEvery = 10
	// DefaultRetryAfter is how many ticks an unacked frame waits before
	// its first resend; the wait doubles per attempt.
	DefaultRetryAfter = 2
	// DefaultMaxAttempts is the total delivery attempts per frame before
	// the replicator gives up on it.
	DefaultMaxAttempts = 4
)

// ReplicatorConfig parameterizes a Replicator.
type ReplicatorConfig struct {
	// Node labels traces with the owning shard's identity.
	Node string
	// SnapshotEvery is the base tick period between fresh ships per task;
	// each task's schedule is staggered by its name hash so a shard owning
	// many tasks spreads frames over the period instead of bursting. Zero
	// means DefaultSnapshotEvery.
	SnapshotEvery int
	// RetryAfter is the tick delay before an unacked frame's first resend,
	// doubling on each further attempt. Zero means DefaultRetryAfter.
	RetryAfter int
	// MaxAttempts is the total delivery attempts per frame. Zero means
	// DefaultMaxAttempts.
	MaxAttempts int
	// Metrics registers replication counters. Optional.
	Metrics *obs.Registry
	// Tracer records ship/abandon events. Optional.
	Tracer *obs.Tracer
}

// Pending is one shipped-but-unacknowledged snapshot frame. A tracked task
// has one record for as long as it is tracked, armed again by each Ship, so
// the frame is encoded into the same buffer every time. Only Ship writes a
// record, and the record is read only by the goroutine that calls Ship and
// Resend, so a send of the frame never sees it change.
type Pending struct {
	// Task names the task the frame belongs to.
	Task string
	// To is the ring-successor shard the frame was shipped to.
	To string
	// Addr is the successor's transport address at ship time. Resends go
	// to the same address; if the successor died meanwhile the frame is
	// eventually abandoned and the next fresh ship re-routes.
	Addr string
	// Epoch is the frame's snapshot epoch.
	Epoch uint64
	// Frame is the encoded snapshot, valid until the task's next Ship.
	Frame []byte

	attempts int
	nextSend uint64
}

// replSchedule is the per-task cadence state, and the task's retry record.
type replSchedule struct {
	task     string
	nextShip uint64
	frame    Pending
}

func scheduleTask(s *replSchedule) string { return s.task }
func pendingTask(p *Pending) string       { return p.Task }

// Replicator schedules allowance-snapshot replication for a shard's owned
// tasks: per-task staggered cadence, one in-flight frame per task with
// bounded exponential-backoff retries, and abandonment (traced and
// counted) when a frame exhausts its attempts. It holds the frames and no
// transport — Node asks it what is due and performs the sends.
//
// Replicator is NOT safe for concurrent use; Node serializes access under
// its own lock.
type Replicator struct {
	cfg ReplicatorConfig

	shipped   *obs.Counter
	retries   *obs.Counter
	acks      *obs.Counter
	abandoned *obs.Counter

	tasks   map[string]*replSchedule
	pending map[string]*Pending
	// order and inflight are tasks and pending sorted by task name, the
	// order Due and Resend report in; due and resend are their results,
	// rewritten by every call.
	order    []*replSchedule
	inflight []*Pending
	due      []string
	resend   []*Pending
}

// NewReplicator builds an idle replicator.
func NewReplicator(cfg ReplicatorConfig) *Replicator {
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	r := &Replicator{
		cfg:     cfg,
		tasks:   make(map[string]*replSchedule),
		pending: make(map[string]*Pending),
	}
	m := cfg.Metrics
	r.shipped = m.Counter("volley_cluster_snapshots_shipped_total",
		"Fresh allowance snapshots shipped to ring successors.")
	r.retries = m.Counter("volley_cluster_snapshot_retries_total",
		"Unacked snapshot frames resent.")
	r.acks = m.Counter("volley_cluster_snapshot_acks_total",
		"Snapshot frames acknowledged by their successor.")
	r.abandoned = m.Counter("volley_cluster_snapshots_abandoned_total",
		"Snapshot frames given up on after exhausting delivery attempts.")
	return r
}

// Track starts scheduling a task, with its first ship staggered inside the
// snapshot period by the task's name hash. Tracking an already-tracked
// task is a no-op.
func (r *Replicator) Track(task string, tick uint64) {
	if _, ok := r.tasks[task]; ok {
		return
	}
	stagger := keyHash(task) % uint64(r.cfg.SnapshotEvery)
	s := &replSchedule{task: task, nextShip: tick + 1 + stagger}
	r.tasks[task] = s
	r.order = insertByName(r.order, s, scheduleTask)
}

// Untrack stops scheduling a task and drops any in-flight frame for it.
func (r *Replicator) Untrack(task string) {
	if _, ok := r.tasks[task]; ok {
		delete(r.tasks, task)
		r.order = deleteByName(r.order, task, scheduleTask)
	}
	r.dropPending(task)
}

// dropPending forgets the in-flight frame for a task, if there is one.
func (r *Replicator) dropPending(task string) {
	if _, ok := r.pending[task]; ok {
		delete(r.pending, task)
		r.inflight = deleteByName(r.inflight, task, pendingTask)
	}
}

// Due returns the tasks due a fresh snapshot ship at the given tick,
// sorted for determinism. A task with a frame still in flight is held
// back — one in-flight frame per task — but its schedule keeps its slot,
// so it is due again as soon as the frame is acked or abandoned. The
// result is valid until the next Due; the caller may Track, Untrack and
// ship while walking it.
func (r *Replicator) Due(tick uint64) []string {
	r.due = r.due[:0]
	for _, s := range r.order {
		if s.nextShip > tick {
			continue
		}
		if _, inflight := r.pending[s.task]; inflight {
			continue
		}
		r.due = append(r.due, s.task)
	}
	return r.due
}

// Ship frames st for its task's ring successor (or, at a handoff, its new
// owner), arming the retry timer and advancing the task's cadence. Whatever
// was in flight for the task is forgotten. The caller sends the returned
// record's Frame. A state too large to frame is an error and leaves nothing
// in flight.
func (r *Replicator) Ship(st *coord.AllowanceState, to, addr string, tick uint64, now time.Duration) (*Pending, error) {
	task := st.Task
	r.dropPending(task)
	var p *Pending
	s, tracked := r.tasks[task]
	if tracked {
		p = &s.frame
	} else {
		// A task released a moment ago: its handoff frame gets a record of
		// its own, which lasts until the ack.
		p = new(Pending)
	}
	frame, err := AppendSnapshot(p.Frame[:0], st)
	if err != nil {
		return nil, err
	}
	if tracked {
		s.nextShip = tick + uint64(r.cfg.SnapshotEvery)
	}
	*p = Pending{
		Task: task, To: to, Addr: addr, Epoch: st.Epoch, Frame: frame,
		attempts: 1,
		nextSend: tick + uint64(r.cfg.RetryAfter),
	}
	r.pending[task] = p
	r.inflight = insertByName(r.inflight, p, pendingTask)
	r.shipped.Inc()
	r.cfg.Tracer.Record(obs.Event{
		Time: now, Type: obs.EventSnapshotShip,
		Node: r.cfg.Node, Task: task, Peer: to, Value: float64(st.Epoch),
	})
	return p, nil
}

// Ack clears the in-flight frame for a task if the acked epoch covers it
// (acks for older epochs are ignored). It reports whether a frame was
// cleared.
func (r *Replicator) Ack(task string, epoch uint64) bool {
	p, ok := r.pending[task]
	if !ok || epoch < p.Epoch {
		return false
	}
	r.dropPending(task)
	r.acks.Inc()
	return true
}

// Resend returns the in-flight frames whose retry timer expired at the
// given tick, in task order, bumping their attempt counts and doubling
// their backoff. Frames that exhausted MaxAttempts are dropped, traced and
// counted as abandoned instead of returned. The result is valid until the
// next Resend.
func (r *Replicator) Resend(tick uint64, now time.Duration) []*Pending {
	r.resend = r.resend[:0]
	kept := r.inflight[:0]
	for _, p := range r.inflight {
		if p.nextSend <= tick && p.attempts >= r.cfg.MaxAttempts {
			delete(r.pending, p.Task)
			r.abandoned.Inc()
			r.cfg.Tracer.Record(obs.Event{
				Time: now, Type: obs.EventSnapshotAbandon,
				Node: r.cfg.Node, Task: p.Task, Peer: p.To, Value: float64(p.Epoch),
			})
			continue
		}
		kept = append(kept, p)
		if p.nextSend > tick {
			continue
		}
		p.attempts++
		p.nextSend = tick + uint64(r.cfg.RetryAfter)<<(p.attempts-1)
		r.retries.Inc()
		r.resend = append(r.resend, p)
	}
	clear(r.inflight[len(kept):]) // let abandoned frames go
	r.inflight = kept
	return r.resend
}

// InFlight reports how many frames await acknowledgement.
func (r *Replicator) InFlight() int { return len(r.pending) }
