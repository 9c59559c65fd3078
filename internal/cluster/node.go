package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"volley/internal/alerts"
	"volley/internal/coord"
	"volley/internal/obs"
	"volley/internal/transport"
)

// TaskHost starts and stops the local data plane of an owned task — in
// volleyd, the monitor goroutines sampling real sources. hostSpec is the
// opaque, gossiped description of the task's monitor sources, encoded by
// whoever admitted the task; a Node never interprets it.
type TaskHost interface {
	StartTask(spec TaskSpec, hostSpec []byte, coordAddr string) error
	StopTask(name string) error
}

// NodeConfig parameterizes a shard node.
type NodeConfig struct {
	// ID is the shard's stable identity (its ring name). Required.
	ID string
	// Addr is the shard's address on the inter-shard fabric. Required.
	Addr string
	// Peers seeds the membership table (ID and Addr per peer).
	Peers []Member
	// Inter is the inter-shard fabric carrying beacons, snapshots and
	// acks — TCP across processes, Memory in tests. Required. If it also
	// implements transport.Deregisterer, dead peers are deregistered so
	// reconnect loops stop.
	Inter transport.Network
	// Local is the intra-process fabric connecting owned coordinators to
	// their monitors. Required; must implement transport.Deregisterer so
	// released tasks free their coordinator address.
	Local transport.Network
	// Host starts/stops the monitor data plane for owned tasks. Optional
	// (tests drive monitors themselves).
	Host TaskHost
	// BeaconEvery, SuspectAfter and DeadAfter tune membership, in ticks;
	// zeros inherit the membership defaults.
	BeaconEvery  int
	SuspectAfter int
	DeadAfter    int
	// SnapshotEvery, RetryAfter and MaxAttempts tune replication, in
	// ticks; zeros inherit the replicator defaults.
	SnapshotEvery int
	RetryAfter    int
	MaxAttempts   int
	// Replicas is the ring virtual-node count; zero means DefaultReplicas.
	Replicas int
	// Seed seeds membership jitter; zero derives from ID.
	Seed int64
	// OnAlert receives confirmed global violations of owned tasks.
	// Optional.
	OnAlert AlertFunc
	// Alerts is the shard's stateful alert registry, shared by every owned
	// coordinator. Open alerts ride the allowance snapshot frames: a warm
	// takeover resumes the predecessor's episode, a cold takeover reports
	// the alert context lost, and a graceful release forgets the local
	// copy once the final frame ships. Optional.
	Alerts *alerts.Registry
	// Metrics registers the node's counters and gauges. Optional.
	Metrics *obs.Registry
	// Tracer records lifecycle decisions. Optional.
	Tracer *obs.Tracer
}

// RecoveryInfo records how an owned task's coordinator was seeded at
// acquisition, frozen at that moment so later rebalances don't disturb
// what an observer (or the soak harness) reads.
type RecoveryInfo struct {
	// Warm reports whether a replicated snapshot seeded the coordinator.
	Warm bool `json:"warm"`
	// Epoch is the seeding snapshot's epoch (warm only).
	Epoch uint64 `json:"epoch,omitempty"`
	// From is the shard that shipped the seeding snapshot (warm only).
	From string `json:"from,omitempty"`
	// PrevOwner is the shard the task was taken over from.
	PrevOwner string `json:"prevOwner,omitempty"`
	// Assignments is the per-monitor allowance as imported (warm only).
	Assignments map[string]float64 `json:"assignments,omitempty"`
}

// OwnedTaskStatus is one owned task in a NodeStatus.
type OwnedTaskStatus struct {
	Name        string             `json:"name"`
	CoordAddr   string             `json:"coordAddr"`
	Assignments map[string]float64 `json:"assignments"`
	Recovery    *RecoveryInfo      `json:"recovery,omitempty"`
}

// SnapshotStatus is one held replica snapshot in a NodeStatus.
type SnapshotStatus struct {
	Task        string             `json:"task"`
	Epoch       uint64             `json:"epoch"`
	From        string             `json:"from"`
	Assignments map[string]float64 `json:"assignments"`
}

// NodeStatus is a shard's externally visible state, served by volleyd's
// /cluster endpoint. RingDigest is identical across converged shards, and
// CatalogDigest across shards whose catalogs hold the same rows — a shard
// gossips rows only to peers whose catalog digest differs from its own.
type NodeStatus struct {
	ID            string            `json:"id"`
	Addr          string            `json:"addr"`
	Incarnation   uint64            `json:"incarnation"`
	Tick          uint64            `json:"tick"`
	Now           time.Duration     `json:"now"`
	RingDigest    uint64            `json:"ringDigest"`
	RingMembers   []string          `json:"ringMembers"`
	Members       []Member          `json:"members"`
	CatalogLive   int               `json:"catalogLive"`
	CatalogDigest uint64            `json:"catalogDigest"`
	Owned         []OwnedTaskStatus `json:"owned"`
	Snapshots     []SnapshotStatus  `json:"snapshots"`
	ColdStarts    uint64            `json:"coldStarts"`
	Recoveries    uint64            `json:"recoveries"`
	InFlight      int               `json:"inFlight"`
}

// NodeHealth is the counts a shard's liveness probe reports: what Status
// says of the same fields, read without copying any per-task state.
type NodeHealth struct {
	ID          string
	RingDigest  uint64
	RingMembers []string
	Owned       int
	CatalogLive int
	ColdStarts  uint64
	Recoveries  uint64
}

// ownedTask is an owned task's runtime state.
type ownedTask struct {
	spec      TaskSpec
	c         *coord.Coordinator
	coordAddr string
	recovery  *RecoveryInfo
	hosted    bool
}

func ownedName(t *ownedTask) string { return t.spec.Name }

// outMsg is a send assembled under the node lock, executed after it: the
// Memory fabric delivers synchronously into handlers that may call back
// into this node, so sending while holding n.mu would deadlock.
type outMsg struct {
	to  string
	msg transport.Message
}

// Node is one shard of the cross-process cluster: it gossips membership
// and the task catalog with its peers over the inter-shard fabric, places
// tasks on the consistent-hash ring every tick, hosts the coordinators
// (and, via TaskHost, the monitors) of the tasks it owns, ships their
// allowance snapshots to each task's ring successor, and — when a peer
// dies — re-admits the orphaned tasks it inherits, warm from the freshest
// replicated snapshot when one is held, cold (traced and counted) when
// not.
//
// Node is safe for concurrent use by one driving loop calling Tick, the
// transport delivering into HandleMessage, and HTTP handlers calling the
// rest; Tick itself is not reentrant (it reuses its send list).
type Node struct {
	cfg        NodeConfig
	membership *Membership
	store      *SnapshotStore
	rep        *Replicator

	coldStartsC   *obs.Counter
	recoveriesC   *obs.Counter
	hostFailures  *obs.Counter
	admitFailures *obs.Counter
	rowsSent      *obs.Counter
	fullSyncs     *obs.Counter
	beaconBytes   *obs.Counter

	mu          sync.Mutex
	now         time.Duration
	tick        uint64
	ring        *Ring
	ringVersion uint64
	// catalog is the gossiped task catalog, tombstones included;
	// catalogOrder is its rows sorted by name, catalogDigest the XOR of
	// their digest terms, and catalogVersion the high-water mark: the
	// highest version of any row, so the next local edit outranks them all.
	catalog        map[string]*catalogRow
	catalogOrder   []*catalogRow
	catalogDigest  uint64
	catalogVersion uint64
	// liveRows counts the catalog's non-tombstoned rows and ownedN the
	// owned tasks. Written under mu, they are read without it by the
	// scrape-time gauges: a scrape holds the registry's lock while it reads
	// them, and a tick holding mu registers the metrics of a task it places,
	// so a gauge that took mu could deadlock the two.
	liveRows atomic.Int64
	ownedN   atomic.Int64
	// peers is each peer's catalog digest and high-water as of the last
	// beacon heard from it.
	peers map[string]peerCatalog
	// owned is the tasks this shard runs; ownedOrder is the same sorted by
	// name, and coords their coordinators in that order for Tick to walk
	// outside the lock — never written once built, set to nil by whatever
	// changes owned, rebuilt by the next Tick.
	owned      map[string]*ownedTask
	ownedOrder []*ownedTask
	coords     []*coord.Coordinator
	prevOwner  map[string]string
	knownDead  map[string]bool
	coldStarts uint64
	recoveries uint64
	// Scratch reused across ticks: the sends of the tick in progress, the
	// beacon being built, and the state each snapshot is exported into.
	sends     []outMsg
	beaconBuf []byte
	export    coord.AllowanceState
}

// NewNode builds a shard node and registers it on the inter-shard fabric.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.ID == "" || cfg.Addr == "" {
		return nil, fmt.Errorf("cluster: node needs ID and Addr")
	}
	if cfg.Inter == nil || cfg.Local == nil {
		return nil, fmt.Errorf("cluster: node %s needs Inter and Local networks", cfg.ID)
	}
	if _, ok := cfg.Local.(transport.Deregisterer); !ok {
		return nil, fmt.Errorf("cluster: node %s: Local network must support Deregister for task handoff", cfg.ID)
	}
	membership, err := NewMembership(MembershipConfig{
		Self:         Member{ID: cfg.ID, Addr: cfg.Addr},
		Seeds:        cfg.Peers,
		BeaconEvery:  cfg.BeaconEvery,
		SuspectAfter: cfg.SuspectAfter,
		DeadAfter:    cfg.DeadAfter,
		Seed:         cfg.Seed,
		Metrics:      cfg.Metrics,
		Tracer:       cfg.Tracer,
	})
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:        cfg,
		membership: membership,
		store:      NewSnapshotStore(cfg.ID, cfg.Metrics, cfg.Tracer),
		rep: NewReplicator(ReplicatorConfig{
			Node:          cfg.ID,
			SnapshotEvery: cfg.SnapshotEvery,
			RetryAfter:    cfg.RetryAfter,
			MaxAttempts:   cfg.MaxAttempts,
			Metrics:       cfg.Metrics,
			Tracer:        cfg.Tracer,
		}),
		ring:      NewRing(cfg.Replicas),
		catalog:   make(map[string]*catalogRow),
		peers:     make(map[string]peerCatalog),
		owned:     make(map[string]*ownedTask),
		prevOwner: make(map[string]string),
		knownDead: make(map[string]bool),
	}
	m := cfg.Metrics
	n.coldStartsC = m.Counter("volley_cluster_cold_starts_total",
		"Tasks re-admitted after a crash with no replicated snapshot: learned allowance state was lost.")
	n.recoveriesC = m.Counter("volley_cluster_recoveries_total",
		"Tasks re-admitted warm from a replicated snapshot after a crash.")
	n.hostFailures = m.Counter("volley_cluster_host_failures_total",
		"Owned tasks whose monitor data plane failed to start.")
	n.admitFailures = m.Counter("volley_cluster_admit_failures_total",
		"Owned tasks whose coordinator failed to construct from the gossiped spec.")
	m.GaugeFunc("volley_cluster_owned_tasks", "Tasks this shard currently owns.",
		func() float64 { return float64(n.ownedN.Load()) })
	m.GaugeFunc("volley_cluster_catalog_tasks", "Live tasks in the gossiped catalog.",
		func() float64 { return float64(n.liveRows.Load()) })
	n.rowsSent = m.Counter("volley_cluster_catalog_rows_sent_total",
		"Catalog rows attached to beacons. Flat once every peer's catalog digest matches this shard's.")
	n.fullSyncs = m.Counter("volley_cluster_catalog_full_syncs_total",
		"Beacons that carried the whole catalog: to a peer never heard from, or one whose digest differs although it has seen every version this shard has.")
	n.beaconBytes = m.Counter("volley_cluster_beacon_bytes_total",
		"Payload bytes of the beacons sent.")
	if err := cfg.Inter.Register(cfg.Addr, n.HandleMessage); err != nil {
		return nil, fmt.Errorf("cluster: node %s: register inter-shard address: %w", cfg.ID, err)
	}
	for _, id := range membership.RingMembers() {
		n.ring.Add(id)
	}
	n.ringVersion = membership.Version()
	cfg.Tracer.Record(obs.Event{Type: obs.EventShardJoin, Node: cfg.ID, Peer: cfg.ID})
	return n, nil
}

// SetAllowance overrides an owned task's per-monitor allowance (keys are
// monitor addresses; the coordinator validates that they exist and that
// the total stays within the task allowance). The override is re-announced
// to the monitors on the next coordinator tick and shipped to the ring
// successor with the next replication round, which is pulled forward to
// the next node tick.
func (n *Node) SetAllowance(task string, assignments map[string]float64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	t, ok := n.owned[task]
	if !ok {
		return fmt.Errorf("cluster: node %s does not own task %q", n.cfg.ID, task)
	}
	st := t.c.ExportAllowance()
	st.Assignments = assignments
	if err := t.c.ImportAllowance(st); err != nil {
		return err
	}
	if s, ok := n.rep.tasks[task]; ok {
		s.nextShip = n.tick
	}
	return nil
}

// Tick drives one round: membership horizons and beacons, catalog
// reconciliation (placement, acquisition, handoff), snapshot replication
// (fresh ships, retries, abandonment), and the owned coordinators' own
// ticks. The caller supplies the clock; all network sends happen after
// the node lock is released.
func (n *Node) Tick(now time.Duration) {
	n.mu.Lock()
	n.now = now
	n.tick++
	due, _ := n.membership.Tick(now)
	sends := n.reconcileLocked(n.sends[:0])
	sends = n.replicateLocked(sends)
	sends = n.beaconLocked(sends, due)
	if n.coords == nil {
		n.coords = make([]*coord.Coordinator, len(n.ownedOrder))
		for i, t := range n.ownedOrder {
			n.coords[i] = t.c
		}
	}
	coords := n.coords
	n.mu.Unlock()

	// The payloads are this node's own buffers (the beacon scratch, the
	// replicator's frames), which Send only borrows and nothing writes
	// before the next Tick.
	for i := range sends {
		_ = n.cfg.Inter.Send(n.cfg.Addr, sends[i].to, sends[i].msg)
	}
	n.sends = sends[:0]
	for _, c := range coords {
		c.Tick(now)
	}
	// TTL-expire alerts whose episode saw no confirming poll in time.
	n.cfg.Alerts.Tick(now)
}

// HandleMessage consumes one inter-shard frame. It is the fabric's
// registered handler for cfg.Addr.
func (n *Node) HandleMessage(msg transport.Message) {
	switch msg.Kind {
	case transport.KindShardBeacon:
		p := msg.Payload
		if len(p) < beaconPrefixLen || p[0] != beaconVersion {
			return
		}
		digest, version := binary.LittleEndian.Uint64(p[1:]), binary.LittleEndian.Uint64(p[9:])
		n.mu.Lock()
		if rows, err := n.membership.ObserveTable(msg.Task, p[beaconPrefixLen:]); err == nil {
			n.peers[msg.Task] = peerCatalog{digest: digest, version: version}
			n.mergeCatalogLocked(rows)
		}
		n.mu.Unlock()

	case transport.KindSnapshot:
		n.mu.Lock()
		now := n.now
		n.mu.Unlock()
		_, err := n.store.Put(msg.Task, msg.From, now, msg.Payload)
		if err != nil && !errors.Is(err, ErrSnapshotStale) {
			// Corrupt frame: no ack, so the sender retries (the corruption
			// may be transient) and eventually abandons.
			return
		}
		// Fresh and stale frames are both acked — a stale frame means the
		// store already holds something newer, so resending is pointless.
		_ = n.cfg.Inter.Send(n.cfg.Addr, msg.From, transport.Message{
			Kind: transport.KindSnapshotAck, Task: msg.Task,
			Time: now, Epoch: msg.Epoch,
		})

	case transport.KindSnapshotAck:
		n.mu.Lock()
		n.rep.Ack(msg.Task, msg.Epoch)
		n.mu.Unlock()
	}
}

// reconcileLocked aligns this shard with the current membership and
// catalog: rebuilds the ring on membership change, deregisters dead
// peers' transports, evicts tombstoned tasks, acquires tasks the ring
// places here, and releases (with a final snapshot handoff) tasks the
// ring moved elsewhere.
func (n *Node) reconcileLocked(sends []outMsg) []outMsg {
	if v := n.membership.Version(); v != n.ringVersion {
		n.ring = NewRing(n.cfg.Replicas)
		for _, id := range n.membership.RingMembers() {
			n.ring.Add(id)
		}
		n.ringVersion = v
		n.cfg.Tracer.Record(obs.Event{
			Time: n.now, Type: obs.EventRingRebuild,
			Node: n.cfg.ID, Interval: n.ring.Len(),
		})
		// Every liveness transition advances the version, so this is also
		// the only time a peer can have died or come back.
		n.noteDeathsLocked()
	}

	for _, rec := range n.catalogOrder {
		name := rec.Spec.Name
		if rec.Deleted {
			if t, ok := n.owned[name]; ok {
				n.stopOwnedLocked(name, t)
				n.cfg.Alerts.DropTask(name, n.now)
				n.cfg.Tracer.Record(obs.Event{
					Time: n.now, Type: obs.EventTaskEvict,
					Node: n.cfg.ID, Task: name, Peer: n.cfg.ID,
				})
			}
			n.store.Drop(name)
			delete(n.prevOwner, name)
			continue
		}
		owner, ok := n.ring.Place(name)
		if !ok {
			continue
		}
		prev := n.prevOwner[name]
		n.prevOwner[name] = owner
		if owner == n.cfg.ID {
			if _, have := n.owned[name]; !have {
				n.acquireLocked(name, rec, prev)
			}
		} else if t, have := n.owned[name]; have {
			sends = n.releaseLocked(sends, name, t, owner)
		}
	}
	return sends
}

// noteDeathsLocked traces each newly dead peer once and deregisters it
// from the inter-shard fabric, ending reconnect loops to it.
func (n *Node) noteDeathsLocked() {
	for _, m := range n.membership.Members() {
		if m.ID == n.cfg.ID {
			continue
		}
		if m.State != MemberDead {
			// A rejoined peer is no longer dead; let a future death
			// deregister it again.
			delete(n.knownDead, m.ID)
			continue
		}
		if n.knownDead[m.ID] {
			continue
		}
		n.knownDead[m.ID] = true
		n.cfg.Tracer.Record(obs.Event{
			Time: n.now, Type: obs.EventShardCrash, Node: n.cfg.ID, Peer: m.ID,
		})
		if dereg, ok := n.cfg.Inter.(transport.Deregisterer); ok && m.Addr != "" {
			_ = dereg.Deregister(m.Addr) // unknown peer (never dialed) is fine
		}
	}
}

// acquireLocked starts owning a task: builds its coordinator, seeds it
// from the freshest replicated snapshot when one is held (warm recovery),
// and otherwise — if this is a takeover rather than a first placement —
// records the allowance loss as a cold start.
func (n *Node) acquireLocked(name string, rec *catalogRow, prevOwner string) {
	spec := rec.Spec
	coordAddr := n.cfg.ID + "/" + name + "/coord"
	var onAlert coord.AlertFunc
	if n.cfg.OnAlert != nil {
		alert := n.cfg.OnAlert
		onAlert = func(now time.Duration, total float64) { alert(name, now, total) }
	}
	c, err := coord.New(coord.Config{
		ID:            coordAddr,
		Task:          name,
		Threshold:     spec.Threshold,
		Direction:     spec.Direction,
		Err:           spec.Err,
		Monitors:      spec.Monitors,
		Network:       n.cfg.Local,
		Scheme:        spec.Scheme,
		UpdatePeriod:  spec.UpdatePeriod,
		MinAssignFrac: spec.MinAssignFrac,
		PollExpiry:    spec.PollExpiry,
		DeadAfter:     spec.DeadAfter,
		OnAlert:       onAlert,
		Alerts:        n.cfg.Alerts,
		Tracer:        n.cfg.Tracer,
	})
	if err != nil {
		n.admitFailures.Inc()
		return
	}
	takeover := prevOwner != "" && prevOwner != n.cfg.ID
	recovery := &RecoveryInfo{PrevOwner: prevOwner}
	if entry, st, ok := n.store.State(name); ok {
		if err := c.ImportAllowance(st); err == nil {
			recovery.Warm = true
			recovery.Epoch = entry.Epoch
			recovery.From = entry.From
			recovery.Assignments = st.Assignments // decoded for this import, nobody else holds it
			n.recoveries++
			n.recoveriesC.Inc()
			n.cfg.Tracer.Record(obs.Event{
				Time: n.now, Type: obs.EventRecovery,
				Node: n.cfg.ID, Task: name, Peer: prevOwner, Value: float64(entry.Epoch),
			})
		}
	}
	switch {
	case recovery.Warm:
	case takeover:
		// Silent allowance loss made loud: the task had an owner whose
		// learned distribution is gone — the coordinator starts from even
		// defaults.
		n.coldStarts++
		n.coldStartsC.Inc()
		n.cfg.Tracer.Record(obs.Event{
			Time: n.now, Type: obs.EventColdStart,
			Node: n.cfg.ID, Task: name, Peer: prevOwner,
		})
		// Whatever alert episode was open at the dead owner is gone too
		// (unless this registry still holds it from a previous ownership).
		if len(n.cfg.Alerts.ExportOpen(name)) == 0 {
			n.cfg.Alerts.Lost(name, n.now, prevOwner)
		}
	default:
		recovery = nil // first placement: nothing to recover
		n.cfg.Tracer.Record(obs.Event{
			Time: n.now, Type: obs.EventTaskAdmit,
			Node: n.cfg.ID, Task: name, Peer: n.cfg.ID,
			Value: spec.Threshold, Err: spec.Err,
		})
	}
	hosted := false
	if n.cfg.Host != nil {
		if err := n.cfg.Host.StartTask(spec, rec.HostSpec, coordAddr); err != nil {
			n.hostFailures.Inc()
		} else {
			hosted = true
		}
	}
	t := &ownedTask{
		spec: spec, c: c, coordAddr: coordAddr, recovery: recovery, hosted: hosted,
	}
	n.owned[name] = t
	n.ownedOrder = insertByName(n.ownedOrder, t, ownedName)
	n.ownedN.Store(int64(len(n.owned)))
	n.coords = nil
	n.rep.Track(name, n.tick)
}

// releaseLocked hands a task to its new owner: stops the local data
// plane, exports a final snapshot, and ships it to the new owner through
// the replicator (acked, retried, eventually abandoned like any frame).
func (n *Node) releaseLocked(sends []outMsg, name string, t *ownedTask, newOwner string) []outMsg {
	n.stopOwnedLocked(name, t)
	n.cfg.Tracer.Record(obs.Event{
		Time: n.now, Type: obs.EventTaskHandoff,
		Node: n.cfg.ID, Task: name, Peer: newOwner,
	})
	addr, ok := n.membership.AddrOf(newOwner)
	if !ok {
		return sends
	}
	t.c.ExportAllowanceInto(&n.export)
	// The open alert travels inside the export; the local copy would
	// otherwise linger as a stale live episode on a shard that no longer
	// owns the task.
	n.cfg.Alerts.Forget(name)
	return n.shipLocked(sends, newOwner, addr)
}

// shipLocked frames the state last exported into n.export and sends it to
// a peer through the replicator (acked, retried, eventually abandoned).
func (n *Node) shipLocked(sends []outMsg, to, addr string) []outMsg {
	p, err := n.rep.Ship(&n.export, to, addr, n.tick, n.now)
	if err != nil {
		return sends
	}
	return n.sendFrameLocked(sends, p)
}

// sendFrameLocked appends the send of an in-flight frame, fresh or retried.
func (n *Node) sendFrameLocked(sends []outMsg, p *Pending) []outMsg {
	return append(sends, outMsg{to: p.Addr, msg: transport.Message{
		Kind: transport.KindSnapshot, Task: p.Task,
		Time: n.now, Epoch: p.Epoch, Payload: p.Frame,
	}})
}

// stopOwnedLocked tears down an owned task's local runtime.
func (n *Node) stopOwnedLocked(name string, t *ownedTask) {
	if t.hosted && n.cfg.Host != nil {
		_ = n.cfg.Host.StopTask(name)
	}
	if dereg, ok := n.cfg.Local.(transport.Deregisterer); ok {
		_ = dereg.Deregister(t.coordAddr)
	}
	delete(n.owned, name)
	n.ownedOrder = deleteByName(n.ownedOrder, name, ownedName)
	n.ownedN.Store(int64(len(n.owned)))
	n.coords = nil
	n.rep.Untrack(name)
}

// replicateLocked runs one replication round: fresh ships for due tasks
// and retries for unacked frames.
func (n *Node) replicateLocked(sends []outMsg) []outMsg {
	for _, name := range n.rep.Due(n.tick) {
		t, ok := n.owned[name]
		if !ok {
			n.rep.Untrack(name)
			continue
		}
		succ, ok := n.ring.Successor(name, n.cfg.ID)
		if !ok {
			// Alone on the ring: nothing to replicate to. Keep the cadence
			// so a later joiner starts receiving frames promptly.
			if s, ok := n.rep.tasks[name]; ok {
				s.nextShip = n.tick + uint64(n.rep.cfg.SnapshotEvery)
			}
			continue
		}
		addr, ok := n.membership.AddrOf(succ)
		if !ok {
			continue
		}
		t.c.ExportAllowanceInto(&n.export)
		sends = n.shipLocked(sends, succ, addr)
	}
	for _, p := range n.rep.Resend(n.tick, n.now) {
		sends = n.sendFrameLocked(sends, p)
	}
	return sends
}

// Status snapshots the shard's externally visible state.
func (n *Node) Status() NodeStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := NodeStatus{
		ID:          n.cfg.ID,
		Addr:        n.cfg.Addr,
		Incarnation: n.membership.Self().Incarnation,
		Tick:        n.tick,
		Now:         n.now,
		RingDigest:  n.membership.Digest(),
		RingMembers: n.membership.RingMembers(),
		Members:     n.membership.Members(),
		CatalogLive: int(n.liveRows.Load()),
		ColdStarts:  n.coldStarts,
		Recoveries:  n.recoveries,
		InFlight:    n.rep.InFlight(),

		CatalogDigest: n.catalogDigest,
	}
	for _, t := range n.ownedOrder {
		st.Owned = append(st.Owned, OwnedTaskStatus{
			Name:        t.spec.Name,
			CoordAddr:   t.coordAddr,
			Assignments: t.c.Assignments(),
			Recovery:    t.recovery,
		})
	}
	for _, e := range n.store.Entries() {
		e, held, ok := n.store.State(e.Task)
		if !ok {
			continue // dropped since it was listed
		}
		st.Snapshots = append(st.Snapshots, SnapshotStatus{
			Task:        e.Task,
			Epoch:       e.Epoch,
			From:        e.From,
			Assignments: held.Assignments,
		})
	}
	return st
}

// Health reads the shard's counts under the node lock. Unlike Status it
// copies no owned task's allocation and no held snapshot, so what it costs
// does not grow with the tasks the shard owns or replicates.
func (n *Node) Health() NodeHealth {
	n.mu.Lock()
	defer n.mu.Unlock()
	return NodeHealth{
		ID:          n.cfg.ID,
		RingDigest:  n.membership.Digest(),
		RingMembers: n.membership.RingMembers(),
		Owned:       len(n.owned),
		CatalogLive: int(n.liveRows.Load()),
		ColdStarts:  n.coldStarts,
		Recoveries:  n.recoveries,
	}
}

// Owned lists the tasks this shard currently owns, sorted.
func (n *Node) Owned() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, len(n.ownedOrder))
	for i, t := range n.ownedOrder {
		out[i] = t.spec.Name
	}
	return out
}

// Allowance returns an owned task's live per-monitor allowance.
func (n *Node) Allowance(task string) (map[string]float64, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	t, ok := n.owned[task]
	if !ok {
		return nil, false
	}
	return t.c.Assignments(), true
}

// Membership exposes the node's membership table (for tests and volleyd).
func (n *Node) Membership() *Membership { return n.membership }

// Store exposes the node's replica snapshot store (for tests).
func (n *Node) Store() *SnapshotStore { return n.store }
