package cluster

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"volley/internal/alerts"
	"volley/internal/coord"
	"volley/internal/core"
	"volley/internal/obs"
	"volley/internal/transport"
)

// AlertFunc receives cluster-wide confirmed global violations, tagged with
// the task that raised them. It is invoked from message-delivery paths
// (never under the cluster's own lock), but must not call back into the
// Cluster.
type AlertFunc func(task string, now time.Duration, total float64)

// Config parameterizes a Cluster.
type Config struct {
	// Name prefixes the coordinator addresses the cluster claims on the
	// network ("<name>/<task>/coord"). Empty means "cluster".
	Name string
	// Shards are the initial coordinator-shard IDs. At least one.
	Shards []string
	// Network carries coordinator↔monitor traffic. It must also implement
	// transport.Deregisterer — task handoff re-homes a coordinator address
	// from one shard to another, which requires removing the old
	// registration (transport.Memory qualifies; TCP fabrics need an
	// adapter that routes addresses, cf. examples/tcpcluster).
	Network transport.Network
	// Replicas is the virtual-node count per shard on the placement ring.
	// Zero means DefaultReplicas.
	Replicas int
	// OnAlert receives every confirmed global violation, tagged with the
	// task. Optional.
	OnAlert AlertFunc
	// Alerts is the cluster-wide stateful alert registry, shared by every
	// task coordinator: confirmed polls raise/dedup, clearing polls
	// auto-resolve, handoffs carry open alerts (they ride the allowance
	// snapshots), cold starts report alert context lost, and evictions
	// close the task's alert. Optional.
	Alerts *alerts.Registry
	// Metrics registers the cluster's live views (ring epoch, shard and
	// task counts, per-shard task gauges, lifecycle counters, aggregated
	// coordinator activity). Optional.
	Metrics *obs.Registry
	// Tracer records cluster lifecycle events: shard join/leave/crash,
	// ring rebuilds, task admission, eviction, update and handoff.
	// Optional.
	Tracer *obs.Tracer
}

// TaskSpec describes one monitoring task for admission. Zero values of the
// tuning fields inherit the coordinator defaults (coord.Config semantics).
type TaskSpec struct {
	// Name identifies the task; it must be unique within the cluster.
	Name string `json:"name"`
	// Threshold is the global threshold T.
	Threshold float64 `json:"threshold"`
	// Direction selects the violating side. Zero means core.Above.
	Direction core.Direction `json:"direction,omitempty"`
	// Err is the task-level error allowance.
	Err float64 `json:"err"`
	// Monitors lists the task's monitor addresses.
	Monitors []string `json:"monitors"`
	// Scheme selects allowance distribution. Zero means adaptive.
	Scheme coord.Scheme `json:"scheme,omitempty"`
	// UpdatePeriod, MinAssignFrac, PollExpiry and DeadAfter tune the
	// coordinator; zero values inherit its defaults.
	UpdatePeriod  int     `json:"updatePeriod,omitempty"`
	MinAssignFrac float64 `json:"minAssignFrac,omitempty"`
	PollExpiry    int     `json:"pollExpiry,omitempty"`
	DeadAfter     int     `json:"deadAfter,omitempty"`
}

// Stats is a snapshot of cluster-wide activity: control-plane lifecycle
// counters plus the coordinator counters summed across every task — the
// root aggregator's merged view.
type Stats struct {
	Shards    int
	Tasks     int
	RingEpoch uint64

	Admissions   uint64
	Evictions    uint64
	Updates      uint64
	Handoffs     uint64
	Rebuilds     uint64
	ShardJoins   uint64
	ShardLeaves  uint64
	ShardCrashes uint64

	// Coord sums every task coordinator's counters (alerts, polls,
	// reclamations, …) into one cluster-wide view.
	Coord coord.Stats
}

// ShardInfo is one shard's control-plane view.
type ShardInfo struct {
	ID string `json:"id"`
	// Tasks is the number of tasks currently placed on the shard.
	Tasks int `json:"tasks"`
	// Ready reports whether the shard accepts placements. In-process
	// shards are ready from the moment they join; a federated control
	// plane would hold this false until the remote peer is reachable.
	Ready bool `json:"ready"`
}

// TaskInfo is one task's control-plane view.
type TaskInfo struct {
	Spec TaskSpec `json:"spec"`
	// Shard is the owning shard.
	Shard string `json:"shard"`
	// CoordAddr is the task's coordinator address — stable across
	// handoffs, so monitors never re-point.
	CoordAddr string `json:"coordAddr"`
}

// task is the control plane's record of one admitted task.
type task struct {
	spec  TaskSpec
	shard string
	c     *coord.Coordinator
}

// Cluster shards monitoring tasks across coordinator instances with a
// consistent-hash ring, hosts the coordinators, and admits, retunes,
// re-places and evicts tasks at runtime. All methods are safe for
// concurrent use.
type Cluster struct {
	cfg   Config
	dereg transport.Deregisterer

	mu    sync.Mutex
	ring  *Ring
	tasks map[string]*task
	// order holds the tasks sorted by name, so Tick advances coordinators
	// and rebalances hand tasks off in a deterministic order. Admission and
	// eviction insert and delete by binary search.
	order []*task
	// coords is order's coordinators as Tick and Stats walk them outside
	// the lock. It is never written after it is built; whatever changes
	// order or a task's coordinator sets it to nil and the next reader
	// builds a fresh one.
	coords []*coord.Coordinator
	now    time.Duration
	// retired accumulates the final counters of replaced or evicted
	// coordinators, so Stats stays cumulative across handoffs and updates
	// instead of resetting with each incarnation.
	retired coord.Stats

	admissions   *obs.Counter
	evictions    *obs.Counter
	updates      *obs.Counter
	handoffs     *obs.Counter
	rebuilds     *obs.Counter
	shardJoins   *obs.Counter
	shardLeaves  *obs.Counter
	shardCrashes *obs.Counter
}

// New validates cfg and builds a cluster with the initial shards on the
// ring and no tasks.
func New(cfg Config) (*Cluster, error) {
	if cfg.Name == "" {
		cfg.Name = "cluster"
	}
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster %s: no shards", cfg.Name)
	}
	if cfg.Network == nil {
		return nil, fmt.Errorf("cluster %s: nil network", cfg.Name)
	}
	dereg, ok := cfg.Network.(transport.Deregisterer)
	if !ok {
		return nil, fmt.Errorf("cluster %s: network %T cannot deregister addresses (task handoff needs transport.Deregisterer)", cfg.Name, cfg.Network)
	}
	cl := &Cluster{
		cfg:   cfg,
		dereg: dereg,
		ring:  NewRing(cfg.Replicas),
		tasks: make(map[string]*task),
	}
	for _, s := range cfg.Shards {
		if s == "" {
			return nil, fmt.Errorf("cluster %s: empty shard ID", cfg.Name)
		}
		if !cl.ring.Add(s) {
			return nil, fmt.Errorf("cluster %s: duplicate shard %q", cfg.Name, s)
		}
	}

	m := cfg.Metrics
	cl.admissions = m.Counter("volley_cluster_admissions_total", "Tasks admitted at runtime.")
	cl.evictions = m.Counter("volley_cluster_evictions_total", "Tasks evicted at runtime.")
	cl.updates = m.Counter("volley_cluster_updates_total", "Task retunings (threshold / allowance) applied.")
	cl.handoffs = m.Counter("volley_cluster_handoffs_total", "Task migrations between shards, allowance state carried.")
	cl.rebuilds = m.Counter("volley_cluster_ring_rebuilds_total", "Placement-ring membership changes.")
	cl.shardJoins = m.Counter("volley_cluster_shard_joins_total", "Shards that joined the ring.")
	cl.shardLeaves = m.Counter("volley_cluster_shard_leaves_total", "Shards that left the ring gracefully.")
	cl.shardCrashes = m.Counter("volley_cluster_shard_crashes_total", "Shards lost without a graceful drain.")
	// Every shard's coordinator state lives in this process, so a crash
	// handoff carries it and these stay 0; the families are registered so a
	// scrape of this runtime has the names a Node's has, where they count.
	m.Counter("volley_cluster_cold_starts_total",
		"Tasks re-placed after a crash with no replicated snapshot: learned allowance state was lost.")
	m.Counter("volley_cluster_recoveries_total",
		"Tasks re-placed after a crash warm from a replicated snapshot.")
	if m != nil {
		m.GaugeFunc("volley_cluster_ring_epoch", "Placement-ring membership version.",
			func() float64 { return float64(cl.RingEpoch()) })
		m.GaugeFunc("volley_cluster_shards", "Shards currently on the placement ring.",
			func() float64 { cl.mu.Lock(); defer cl.mu.Unlock(); return float64(cl.ring.Len()) })
		m.GaugeFunc("volley_cluster_tasks", "Tasks currently admitted.",
			func() float64 { cl.mu.Lock(); defer cl.mu.Unlock(); return float64(len(cl.tasks)) })
		m.GaugeVecFunc("volley_cluster_shard_tasks", "Tasks placed on each shard.", "shard",
			func() map[string]float64 {
				cl.mu.Lock()
				defer cl.mu.Unlock()
				out := make(map[string]float64, cl.ring.Len())
				for _, s := range cl.ring.Shards() {
					out[s] = 0
				}
				for _, t := range cl.tasks {
					out[t.shard]++
				}
				return out
			})
		m.GaugeFunc("volley_cluster_global_alerts", "Confirmed global alerts, summed across all task coordinators.",
			func() float64 { return float64(cl.Stats().Coord.GlobalAlerts) })
		m.GaugeFunc("volley_cluster_local_violations", "Local violation reports, summed across all task coordinators.",
			func() float64 { return float64(cl.Stats().Coord.LocalViolations) })
		m.GaugeFunc("volley_cluster_reclamations", "Dead-monitor allowance reclamations, summed across all task coordinators.",
			func() float64 { return float64(cl.Stats().Coord.Reclamations) })
	}
	return cl, nil
}

// CoordinatorAddr is the network address of a task's coordinator. It is a
// pure function of the cluster name and task name — stable across
// handoffs, so monitors configured with it never re-point.
func (cl *Cluster) CoordinatorAddr(taskName string) string {
	return cl.cfg.Name + "/" + taskName + "/coord"
}

// newCoordinator builds and registers the coordinator for spec. The caller
// must have ensured the address is free (fresh admission, or handoff after
// deregistering the predecessor).
func (cl *Cluster) newCoordinator(spec TaskSpec) (*coord.Coordinator, error) {
	var onAlert coord.AlertFunc
	if cl.cfg.OnAlert != nil {
		name, alert := spec.Name, cl.cfg.OnAlert
		onAlert = func(now time.Duration, total float64) { alert(name, now, total) }
	}
	return coord.New(coord.Config{
		ID:            cl.CoordinatorAddr(spec.Name),
		Task:          spec.Name,
		Threshold:     spec.Threshold,
		Direction:     spec.Direction,
		Err:           spec.Err,
		Monitors:      spec.Monitors,
		Network:       cl.cfg.Network,
		Scheme:        spec.Scheme,
		UpdatePeriod:  spec.UpdatePeriod,
		MinAssignFrac: spec.MinAssignFrac,
		PollExpiry:    spec.PollExpiry,
		DeadAfter:     spec.DeadAfter,
		OnAlert:       onAlert,
		Alerts:        cl.cfg.Alerts,
		Tracer:        cl.cfg.Tracer,
	})
}

func taskName(t *task) string { return t.spec.Name }

// forgetTaskLocked drops a task from the control plane's records. Caller
// holds cl.mu.
func (cl *Cluster) forgetTaskLocked(name string) {
	delete(cl.tasks, name)
	cl.order = deleteByName(cl.order, name, taskName)
	cl.coords = nil
}

// coordsLocked is the coordinators in task-name order, for walking after
// cl.mu is released. Caller holds cl.mu.
func (cl *Cluster) coordsLocked() []*coord.Coordinator {
	if cl.coords == nil {
		cl.coords = make([]*coord.Coordinator, len(cl.order))
		for i, t := range cl.order {
			cl.coords[i] = t.c
		}
	}
	return cl.coords
}

// Admit validates spec, places the task on the ring and starts its
// coordinator on the owning shard. It returns the owning shard. The
// caller connects the task's monitors to CoordinatorAddr(spec.Name).
func (cl *Cluster) Admit(spec TaskSpec) (string, error) {
	if spec.Name == "" {
		return "", fmt.Errorf("cluster %s: empty task name", cl.cfg.Name)
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if _, dup := cl.tasks[spec.Name]; dup {
		return "", fmt.Errorf("cluster %s: task %q already admitted", cl.cfg.Name, spec.Name)
	}
	shard, ok := cl.ring.Place(spec.Name)
	if !ok {
		return "", fmt.Errorf("cluster %s: no shards on the ring", cl.cfg.Name)
	}
	c, err := cl.newCoordinator(spec) // validates the spec and claims the address
	if err != nil {
		return "", err
	}
	t := &task{spec: spec, shard: shard, c: c}
	cl.tasks[spec.Name] = t
	cl.order = insertByName(cl.order, t, taskName)
	cl.coords = nil
	cl.admissions.Inc()
	cl.cfg.Tracer.Record(obs.Event{
		Type: obs.EventTaskAdmit, Node: cl.cfg.Name, Task: spec.Name,
		Time: cl.now, Peer: shard, Value: spec.Threshold, Err: spec.Err,
	})
	return shard, nil
}

// Evict removes a task: its coordinator address is released and the task
// forgotten. Monitors pointed at it keep sampling standalone; their sends
// fail harmlessly.
func (cl *Cluster) Evict(name string) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	t, ok := cl.tasks[name]
	if !ok {
		return fmt.Errorf("cluster %s: unknown task %q", cl.cfg.Name, name)
	}
	if err := cl.dereg.Deregister(cl.CoordinatorAddr(name)); err != nil {
		return fmt.Errorf("cluster %s: evict %q: %w", cl.cfg.Name, name, err)
	}
	addStats(&cl.retired, t.c.Stats())
	cl.forgetTaskLocked(name)
	cl.cfg.Alerts.DropTask(name, cl.now)
	cl.evictions.Inc()
	cl.cfg.Tracer.Record(obs.Event{
		Type: obs.EventTaskEvict, Node: cl.cfg.Name, Task: name,
		Time: cl.now, Peer: t.shard,
	})
	return nil
}

// Update retunes a running task's global threshold and error allowance.
// The coordinator is rebuilt in place (same address, same shard) and the
// allowance state carries over, scaled to the new allowance so each
// monitor keeps its learned share of the pool. Monitor-side local
// thresholds are the caller's to re-split (volleyd does this for the
// tasks it hosts).
func (cl *Cluster) Update(name string, threshold, errAllow float64) error {
	if math.IsNaN(threshold) {
		return fmt.Errorf("cluster %s: update %q: NaN threshold", cl.cfg.Name, name)
	}
	if math.IsNaN(errAllow) || errAllow < 0 || errAllow > 1 {
		return fmt.Errorf("cluster %s: update %q: error allowance %v outside [0, 1]", cl.cfg.Name, name, errAllow)
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	t, ok := cl.tasks[name]
	if !ok {
		return fmt.Errorf("cluster %s: unknown task %q", cl.cfg.Name, name)
	}
	st := t.c.ExportAllowance()
	oldErr := t.spec.Err
	spec := t.spec
	spec.Threshold = threshold
	spec.Err = errAllow
	if err := cl.replaceCoordinatorLocked(t, spec, scaleAllowance(st, oldErr, errAllow, spec.Monitors)); err != nil {
		return fmt.Errorf("cluster %s: update %q: %w", cl.cfg.Name, name, err)
	}
	cl.updates.Inc()
	cl.cfg.Tracer.Record(obs.Event{
		Type: obs.EventTaskUpdate, Node: cl.cfg.Name, Task: name,
		Time: cl.now, Peer: t.shard, Value: threshold, Err: errAllow,
	})
	return nil
}

// scaleAllowance rescales a snapshot from one task-level allowance to
// another, preserving each monitor's share of the pool; from zero
// allowance it falls back to an even split. The snapshot is also scrubbed
// against the spec's monitor list: rows for monitors the spec no longer
// names are dropped (ImportAllowance rejects unknown monitors, and a
// stale row must not sink allowance into a monitor that no longer
// exists). A non-positive (or NaN) target clamps to zero — every monitor
// gets nothing, rather than negative allowance that would break the
// coordinator's invariants.
func scaleAllowance(st coord.AllowanceState, from, to float64, monitors []string) coord.AllowanceState {
	if math.IsNaN(to) || to < 0 {
		to = 0
	}
	known := make(map[string]bool, len(monitors))
	for _, m := range monitors {
		known[m] = true
	}
	for m := range st.Assignments {
		if !known[m] {
			delete(st.Assignments, m)
		}
	}
	for m := range st.Reclaimed {
		if !known[m] {
			delete(st.Reclaimed, m)
		}
	}
	for m := range st.LastSeen {
		if !known[m] {
			delete(st.LastSeen, m)
		}
	}
	if len(st.Dead) > 0 {
		dead := st.Dead[:0]
		for _, m := range st.Dead {
			if known[m] {
				dead = append(dead, m)
			}
		}
		st.Dead = dead
	}
	if from > 0 {
		f := to / from
		for m, e := range st.Assignments {
			st.Assignments[m] = e * f
		}
		for m, r := range st.Reclaimed {
			st.Reclaimed[m] = r * f
		}
	} else {
		if st.Assignments == nil {
			st.Assignments = make(map[string]float64, len(monitors))
		}
		even := 0.0
		if len(monitors) > 0 {
			even = to / float64(len(monitors))
		}
		for _, m := range monitors {
			st.Assignments[m] = even
		}
		st.Reclaimed = nil
	}
	st.Err = to
	return st
}

// replaceCoordinatorLocked swaps a task's coordinator for a fresh one
// built from spec, importing st. The old address is released first; the
// brief window with no registered coordinator only loses in-flight
// messages, which the protocol already tolerates (polls expire, yield
// reports repeat). Caller holds cl.mu.
func (cl *Cluster) replaceCoordinatorLocked(t *task, spec TaskSpec, st coord.AllowanceState) error {
	if err := cl.dereg.Deregister(cl.CoordinatorAddr(spec.Name)); err != nil {
		return err
	}
	addStats(&cl.retired, t.c.Stats())
	c, err := cl.newCoordinator(spec)
	if err != nil {
		// The address was already released; the task cannot be left
		// half-replaced, so it is dropped. Unreachable in practice: the
		// spec was validated when the task was admitted or updated.
		cl.forgetTaskLocked(spec.Name)
		return fmt.Errorf("rebuild coordinator: %w", err)
	}
	t.spec = spec
	t.c = c
	cl.coords = nil
	if err := c.ImportAllowance(st); err != nil {
		return fmt.Errorf("import allowance: %w", err)
	}
	return nil
}

// AddShard joins a shard to the ring and hands over the tasks whose
// placement moved to it, allowance state included.
func (cl *Cluster) AddShard(id string) error {
	if id == "" {
		return fmt.Errorf("cluster %s: empty shard ID", cl.cfg.Name)
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if !cl.ring.Add(id) {
		return fmt.Errorf("cluster %s: shard %q already on the ring", cl.cfg.Name, id)
	}
	cl.shardJoins.Inc()
	cl.cfg.Tracer.Record(obs.Event{
		Type: obs.EventShardJoin, Node: cl.cfg.Name, Time: cl.now, Peer: id,
	})
	return cl.rebalanceTasksLocked()
}

// RemoveShard drains a shard gracefully: it leaves the ring and its tasks
// are handed to their new owners with allowance state. The last shard
// cannot leave while tasks remain.
func (cl *Cluster) RemoveShard(id string) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if err := cl.dropShardLocked(id); err != nil {
		return err
	}
	cl.shardLeaves.Inc()
	cl.cfg.Tracer.Record(obs.Event{
		Type: obs.EventShardLeave, Node: cl.cfg.Name, Time: cl.now, Peer: id,
	})
	return cl.rebalanceTasksLocked()
}

// CrashShard records a shard lost without a graceful drain and re-places
// its tasks. This runtime co-hosts every shard's coordinator state, so the
// handoff still carries the last allowance state; losing state with a
// process, and resuming warm from a replicated snapshot or cold without
// one, is the networked Node's failure model (DESIGN.md §11, §12).
func (cl *Cluster) CrashShard(id string) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if err := cl.dropShardLocked(id); err != nil {
		return err
	}
	cl.shardCrashes.Inc()
	cl.cfg.Tracer.Record(obs.Event{
		Type: obs.EventShardCrash, Node: cl.cfg.Name, Time: cl.now, Peer: id,
	})
	return cl.rebalanceTasksLocked()
}

// dropShardLocked removes a shard from the ring after the safety checks
// shared by leave and crash. Caller holds cl.mu.
func (cl *Cluster) dropShardLocked(id string) error {
	if !cl.ring.Contains(id) {
		return fmt.Errorf("cluster %s: unknown shard %q", cl.cfg.Name, id)
	}
	if cl.ring.Len() == 1 && len(cl.tasks) > 0 {
		return fmt.Errorf("cluster %s: cannot drop last shard %q with %d tasks admitted", cl.cfg.Name, id, len(cl.tasks))
	}
	cl.ring.Remove(id)
	return nil
}

// rebalanceTasksLocked re-places every task after a ring change, handing
// off the ones whose owner moved with their live allowance state. Tasks are
// visited in name order so the handoff sequence is deterministic. Caller
// holds cl.mu.
func (cl *Cluster) rebalanceTasksLocked() error {
	var moved float64
	var firstErr error
	// A failed rebuild drops its task from cl.order, so walk a copy.
	for _, t := range slices.Clone(cl.order) {
		newShard, ok := cl.ring.Place(t.spec.Name)
		if !ok || newShard == t.shard {
			continue
		}
		if err := cl.replaceCoordinatorLocked(t, t.spec, t.c.ExportAllowance()); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster %s: handoff %q: %w", cl.cfg.Name, t.spec.Name, err)
			}
			continue
		}
		from := t.shard
		t.shard = newShard
		moved++
		cl.handoffs.Inc()
		cl.cfg.Tracer.Record(obs.Event{
			Type: obs.EventTaskHandoff, Node: from, Task: t.spec.Name,
			Time: cl.now, Peer: newShard, Err: t.spec.Err,
		})
	}
	cl.rebuilds.Inc()
	cl.cfg.Tracer.Record(obs.Event{
		Type: obs.EventRingRebuild, Node: cl.cfg.Name, Time: cl.now,
		Value: moved, Interval: int(cl.ring.Epoch()),
	})
	return firstErr
}

// Tick advances every task coordinator one default interval, in
// deterministic (task-name) order. The coordinator list is snapshotted
// under the lock and ticked outside it, so admission control stays
// responsive during a tick and coordinator callbacks cannot deadlock
// against the cluster.
func (cl *Cluster) Tick(now time.Duration) {
	cl.mu.Lock()
	cl.now = now
	coords := cl.coordsLocked()
	cl.mu.Unlock()
	for _, c := range coords {
		c.Tick(now)
	}
	// TTL-expire alerts whose episode saw no confirming poll in time.
	cl.cfg.Alerts.Tick(now)
}

// Owner reports the shard currently owning a task.
func (cl *Cluster) Owner(name string) (string, bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	t, ok := cl.tasks[name]
	if !ok {
		return "", false
	}
	return t.shard, true
}

// AllowanceState exports a task coordinator's allowance snapshot — the
// cluster-level window into per-monitor allowance for dashboards and
// tests.
func (cl *Cluster) AllowanceState(name string) (coord.AllowanceState, error) {
	cl.mu.Lock()
	t, ok := cl.tasks[name]
	cl.mu.Unlock()
	if !ok {
		return coord.AllowanceState{}, fmt.Errorf("cluster %s: unknown task %q", cl.cfg.Name, name)
	}
	return t.c.ExportAllowance(), nil
}

// Tasks lists the admitted tasks in name order.
func (cl *Cluster) Tasks() []TaskInfo {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	out := make([]TaskInfo, 0, len(cl.order))
	for _, t := range cl.order {
		out = append(out, TaskInfo{
			Spec:      t.spec,
			Shard:     t.shard,
			CoordAddr: cl.CoordinatorAddr(t.spec.Name),
		})
	}
	return out
}

// Shards lists the ring members in sorted order with their task counts.
func (cl *Cluster) Shards() []ShardInfo {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	counts := make(map[string]int, cl.ring.Len())
	for _, t := range cl.tasks {
		counts[t.shard]++
	}
	out := make([]ShardInfo, 0, cl.ring.Len())
	for _, s := range cl.ring.Shards() {
		out = append(out, ShardInfo{ID: s, Tasks: counts[s], Ready: true})
	}
	return out
}

// RingEpoch reports the placement ring's membership version.
func (cl *Cluster) RingEpoch() uint64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.ring.Epoch()
}

// Stats merges the control plane's lifecycle counters with every task
// coordinator's counters — the cluster-wide aggregate view.
func (cl *Cluster) Stats() Stats {
	cl.mu.Lock()
	st := cl.controlStatsLocked()
	st.Coord = cl.retired
	coords := cl.coordsLocked()
	cl.mu.Unlock()
	for _, c := range coords {
		addStats(&st.Coord, c.Stats())
	}
	return st
}

// ControlStats is Stats without the coordinator sums: the control plane's
// own counters, read under the cluster lock alone, with no coordinator
// visited. Coord is zero.
func (cl *Cluster) ControlStats() Stats {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.controlStatsLocked()
}

func (cl *Cluster) controlStatsLocked() Stats {
	return Stats{
		Shards:       cl.ring.Len(),
		Tasks:        len(cl.tasks),
		RingEpoch:    cl.ring.Epoch(),
		Admissions:   cl.admissions.Value(),
		Evictions:    cl.evictions.Value(),
		Updates:      cl.updates.Value(),
		Handoffs:     cl.handoffs.Value(),
		Rebuilds:     cl.rebuilds.Value(),
		ShardJoins:   cl.shardJoins.Value(),
		ShardLeaves:  cl.shardLeaves.Value(),
		ShardCrashes: cl.shardCrashes.Value(),
	}
}

// addStats accumulates one coordinator's counters into dst.
func addStats(dst *coord.Stats, s coord.Stats) {
	dst.LocalViolations += s.LocalViolations
	dst.Polls += s.Polls
	dst.PollsCompleted += s.PollsCompleted
	dst.PollsExpired += s.PollsExpired
	dst.GlobalAlerts += s.GlobalAlerts
	dst.Rebalances += s.Rebalances
	dst.RebalancesSkipped += s.RebalancesSkipped
	dst.DeadSkipped += s.DeadSkipped
	dst.Heartbeats += s.Heartbeats
	dst.Reclamations += s.Reclamations
	dst.Restorations += s.Restorations
}
