package cluster

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"volley/internal/obs"
	"volley/internal/transport"
)

// MemberState is a shard peer's liveness classification.
type MemberState uint8

const (
	// MemberAlive: heard from within the suspicion horizon.
	MemberAlive MemberState = iota + 1
	// MemberSuspect: silent past the suspicion horizon but not yet
	// declared dead; still owns its ring segment.
	MemberSuspect
	// MemberDead: silent past the liveness horizon (or gossiped dead at a
	// matching incarnation); removed from the ring, its tasks re-placed.
	MemberDead
)

// String implements fmt.Stringer.
func (s MemberState) String() string {
	switch s {
	case MemberAlive:
		return "alive"
	case MemberSuspect:
		return "suspect"
	case MemberDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// MarshalJSON renders the state as its name.
func (s MemberState) MarshalJSON() ([]byte, error) {
	return strconv.AppendQuote(nil, s.String()), nil
}

// UnmarshalJSON parses a state name.
func (s *MemberState) UnmarshalJSON(data []byte) error {
	name, err := strconv.Unquote(string(data))
	if err != nil {
		return err
	}
	switch name {
	case "alive":
		*s = MemberAlive
	case "suspect":
		*s = MemberSuspect
	case "dead":
		*s = MemberDead
	default:
		return fmt.Errorf("cluster: unknown member state %q", name)
	}
	return nil
}

// Member is one row of the membership table: a shard identity, where to
// reach it, and the liveness claim being gossiped about it.
type Member struct {
	// ID is the shard's stable identity (its ring name).
	ID string `json:"id"`
	// Addr is the shard's inter-shard transport address.
	Addr string `json:"addr"`
	// Incarnation is the SWIM incarnation number: only the member itself
	// advances it, by refuting a suspect/dead claim about itself. Claims
	// at a higher incarnation beat any claim at a lower one.
	Incarnation uint64 `json:"incarnation"`
	// State is the liveness claim.
	State MemberState `json:"state"`
}

// MembershipConfig parameterizes a Membership.
type MembershipConfig struct {
	// Self identifies this shard (ID and Addr; State and Incarnation are
	// managed internally).
	Self Member
	// Seeds are the initially known peers (Self is filtered out; State
	// and Incarnation are ignored).
	Seeds []Member
	// BeaconEvery is the base tick period between beacons to each peer;
	// each peer's next beacon is jittered by up to one extra tick so a
	// fleet started in lockstep does not stay synchronized. Zero means 1.
	BeaconEvery int
	// SuspectAfter marks a peer suspect after this many ticks of silence.
	// Zero means DefaultSuspectAfter.
	SuspectAfter int
	// DeadAfter declares a peer dead after this many ticks of silence.
	// Zero means DefaultDeadAfter; must exceed SuspectAfter.
	DeadAfter int
	// Seed seeds the beacon jitter; zero derives one from Self.ID so
	// distinct shards jitter differently even with default config.
	Seed int64
	// Metrics registers membership counters and the live member gauge.
	// Optional.
	Metrics *obs.Registry
	// Tracer records join/suspect/dead transitions. Optional.
	Tracer *obs.Tracer
}

// Membership horizon defaults, in ticks of the driving loop.
const (
	DefaultSuspectAfter = 5
	DefaultDeadAfter    = 10
)

// memberRecord is the internal row: the gossiped claim plus local direct
// evidence (when we last heard the peer ourselves).
type memberRecord struct {
	Member
	// lastSeen is the local clock at the last direct or adoptable-alive
	// evidence; initialized to the clock at first sight so a peer that
	// never speaks is judged from when we learned of it.
	lastSeen time.Duration
	// nextBeacon is the tick the next beacon to this peer is due.
	nextBeacon uint64
}

// Membership is a passive SWIM-style membership table: the caller drives
// it with Tick (which reports which peers are due a beacon and applies
// silence horizons) and Observe (which merges a received table). It does
// no I/O itself; Node wires its outputs to the transport.
//
// Merge rules, per SWIM: a claim at a higher incarnation always wins; at
// equal incarnations the stronger state wins (Dead > Suspect > Alive).
// Only a member advances its own incarnation — when it sees itself
// claimed suspect or dead, it refutes by bumping past the claim, and the
// refutation spreads with its next beacons. Dead members are kept as
// tombstones (never purged) so a dead claim cannot be resurrected by a
// stale alive claim at an old incarnation; an actual rejoin beacons a
// higher incarnation and re-enters cleanly.
//
// Membership is safe for concurrent use.
type Membership struct {
	cfg MembershipConfig

	joins    *obs.Counter
	suspects *obs.Counter
	deaths   *obs.Counter

	mu      sync.Mutex
	self    Member
	members map[string]*memberRecord
	// order is members sorted by ID, so ticking and table snapshots are
	// deterministic regardless of map iteration order. Records are only
	// ever added (the dead stay as tombstones).
	order []*memberRecord
	// beacons is Tick's result, rewritten every tick; table is the rows
	// of the beacon being merged.
	beacons []Member
	table   []Member
	now     time.Duration
	ticks   uint64
	version uint64
	rng     *rand.Rand
}

// NewMembership builds a membership table seeded with the configured
// peers.
func NewMembership(cfg MembershipConfig) (*Membership, error) {
	if cfg.Self.ID == "" {
		return nil, fmt.Errorf("cluster: membership needs a self ID")
	}
	if cfg.BeaconEvery <= 0 {
		cfg.BeaconEvery = 1
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = DefaultSuspectAfter
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = DefaultDeadAfter
	}
	if cfg.DeadAfter <= cfg.SuspectAfter {
		return nil, fmt.Errorf("cluster: DeadAfter %d must exceed SuspectAfter %d",
			cfg.DeadAfter, cfg.SuspectAfter)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = int64(fnv1a(cfg.Self.ID))
	}
	m := &Membership{
		cfg:     cfg,
		self:    Member{ID: cfg.Self.ID, Addr: cfg.Self.Addr, State: MemberAlive},
		members: make(map[string]*memberRecord),
		rng:     rand.New(rand.NewSource(seed)),
	}
	m.joins = cfg.Metrics.Counter("volley_cluster_member_joins_total",
		"Shard peers that entered the membership table (seeds, joins, rejoins).")
	m.suspects = cfg.Metrics.Counter("volley_cluster_member_suspects_total",
		"Shard peers that crossed the suspicion horizon.")
	m.deaths = cfg.Metrics.Counter("volley_cluster_member_deaths_total",
		"Shard peers declared dead.")
	cfg.Metrics.GaugeFunc("volley_cluster_members",
		"Shard members on the placement ring (self plus non-dead peers).",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			n := 1
			for _, r := range m.members {
				if r.State != MemberDead {
					n++
				}
			}
			return float64(n)
		})
	for _, s := range cfg.Seeds {
		if s.ID == "" || s.ID == cfg.Self.ID {
			continue
		}
		if _, ok := m.members[s.ID]; ok {
			continue
		}
		m.addLocked(&memberRecord{
			Member: Member{ID: s.ID, Addr: s.Addr, State: MemberAlive},
		})
		m.joins.Inc()
		m.tracer().Record(obs.Event{
			Type: obs.EventMemberJoin, Node: m.self.ID, Peer: s.ID,
		})
	}
	m.version = 1
	return m, nil
}

func (m *Membership) tracer() *obs.Tracer { return m.cfg.Tracer }

func recordID(r *memberRecord) string { return r.ID }

// addLocked enters a new peer's record.
func (m *Membership) addLocked(r *memberRecord) {
	m.members[r.ID] = r
	m.order = insertByName(m.order, r, recordID)
}

// Tick advances the clock, applies the silence horizons, and returns the
// peers due a beacon this tick plus whether the table changed. The horizon
// unit is estimated from the observed tick cadence (now/ticks), the same
// scheme the coordinator uses for monitor liveness, so horizons configured
// in ticks stay correct under any loop period. The returned slice is the
// table's own scratch: it is valid until the next Tick.
func (m *Membership) Tick(now time.Duration) (beacons []Member, changed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if now > m.now {
		m.now = now
	}
	m.ticks++
	unit := m.now / time.Duration(m.ticks)
	if unit <= 0 {
		unit = 1
	}
	suspectH := unit * time.Duration(m.cfg.SuspectAfter)
	deadH := unit * time.Duration(m.cfg.DeadAfter)

	beacons = m.beacons[:0]
	for _, r := range m.order {
		if r.State == MemberDead {
			continue
		}
		silence := m.now - r.lastSeen
		switch {
		case silence > deadH:
			r.State = MemberDead
			m.version++
			changed = true
			m.deaths.Inc()
			m.tracer().Record(obs.Event{
				Time: m.now, Type: obs.EventMemberDead,
				Node: m.self.ID, Peer: r.ID, Value: float64(r.Incarnation),
			})
			continue
		case silence > suspectH && r.State == MemberAlive:
			r.State = MemberSuspect
			m.version++
			changed = true
			m.suspects.Inc()
			m.tracer().Record(obs.Event{
				Time: m.now, Type: obs.EventMemberSuspect,
				Node: m.self.ID, Peer: r.ID,
			})
		}
		if m.ticks >= r.nextBeacon {
			beacons = append(beacons, r.Member)
			r.nextBeacon = m.ticks + uint64(m.cfg.BeaconEvery+m.rng.Intn(2))
		}
	}
	m.beacons = beacons
	return beacons, changed
}

// Observe merges a membership table received from sender (a shard ID).
// The beacon itself is direct liveness evidence for the sender, strong
// enough to resurrect even a dead record: a process that was declared
// dead and kept running (a false positive, e.g. a long GC pause or a
// healed partition) re-enters without needing to know it was suspected.
// It reports whether the local table changed.
func (m *Membership) Observe(sender string, table []Member) (changed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.observeLocked(sender, table)
}

func (m *Membership) observeLocked(sender string, table []Member) (changed bool) {
	for _, r := range table {
		if m.mergeLocked(r) {
			changed = true
		}
	}
	if rec, ok := m.members[sender]; ok {
		rec.lastSeen = m.now
		if rec.State != MemberAlive {
			wasDead := rec.State == MemberDead
			rec.State = MemberAlive
			m.version++
			changed = true
			if wasDead {
				m.joins.Inc()
				m.tracer().Record(obs.Event{
					Time: m.now, Type: obs.EventMemberJoin,
					Node: m.self.ID, Peer: sender, Value: float64(rec.Incarnation),
				})
			}
		}
	}
	return changed
}

// AppendTable appends the full table (the rows Members returns) in its
// beacon encoding: a uvarint count, then per member the ID and address as
// length-prefixed strings, the incarnation as a uvarint and the state as
// one byte.
func (m *Membership) AppendTable(dst []byte) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	dst = binary.AppendUvarint(dst, uint64(len(m.order)+1))
	dst = appendMember(dst, m.self)
	for _, r := range m.order {
		dst = appendMember(dst, r.Member)
	}
	return dst
}

func appendMember(dst []byte, r Member) []byte {
	dst = transport.AppendString(dst, r.ID)
	dst = transport.AppendString(dst, r.Addr)
	dst = binary.AppendUvarint(dst, r.Incarnation)
	return append(dst, byte(r.State))
}

// ObserveTable is Observe for a table in its beacon encoding at the front
// of b; it returns what follows the table. A table that does not parse is
// not merged at all. Rows naming members already known reuse the table's
// own strings, so merging the beacon of a settled fleet allocates nothing.
func (m *Membership) ObserveTable(sender string, b []byte) (rest []byte, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, b, err := transport.Uvarint(b)
	if err != nil {
		return nil, err
	}
	const minRow = 4 // two empty strings, incarnation, state
	if n > uint64(len(b)/minRow) {
		return nil, fmt.Errorf("%w: member table of %d rows in %d bytes", transport.ErrFrameCorrupt, n, len(b))
	}
	table := m.table[:0]
	for i := uint64(0); i < n; i++ {
		var id, addr []byte
		var row Member
		if id, b, err = transport.BytesField(b); err != nil {
			return nil, err
		}
		if addr, b, err = transport.BytesField(b); err != nil {
			return nil, err
		}
		if row.Incarnation, b, err = transport.Uvarint(b); err != nil {
			return nil, err
		}
		if len(b) == 0 {
			return nil, fmt.Errorf("%w: member row without a state", transport.ErrFrameTruncated)
		}
		row.State, b = MemberState(b[0]), b[1:]
		if row.State < MemberAlive || row.State > MemberDead {
			return nil, fmt.Errorf("%w: member state %d", transport.ErrFrameCorrupt, row.State)
		}
		known := m.self
		if rec, ok := m.members[string(id)]; ok {
			known = rec.Member
		}
		if row.ID = known.ID; string(id) != known.ID {
			row.ID = string(id)
		}
		if row.Addr = known.Addr; string(addr) != known.Addr {
			row.Addr = string(addr)
		}
		table = append(table, row)
	}
	m.table = table
	m.observeLocked(sender, table)
	return b, nil
}

// mergeLocked applies one gossiped row.
func (m *Membership) mergeLocked(r Member) bool {
	if r.ID == "" {
		return false
	}
	if r.ID == m.self.ID {
		// Refutation: any non-alive claim about us, and any claim at or
		// above our incarnation (stale artifacts of a previous run of this
		// identity), is answered by advancing past it so our own alive
		// claims dominate the gossip.
		if r.Incarnation > m.self.Incarnation ||
			(r.Incarnation == m.self.Incarnation && r.State != MemberAlive) {
			m.self.Incarnation = r.Incarnation + 1
			m.version++
			return true
		}
		return false
	}
	l, ok := m.members[r.ID]
	if !ok {
		rec := &memberRecord{
			Member:     Member{ID: r.ID, Addr: r.Addr, Incarnation: r.Incarnation, State: r.State},
			lastSeen:   m.now,
			nextBeacon: m.ticks,
		}
		m.addLocked(rec)
		m.version++
		if r.State != MemberDead {
			m.joins.Inc()
			m.tracer().Record(obs.Event{
				Time: m.now, Type: obs.EventMemberJoin,
				Node: m.self.ID, Peer: r.ID, Value: float64(r.Incarnation),
			})
		}
		return true
	}
	if r.Addr != "" && l.Addr == "" {
		l.Addr = r.Addr
	}
	switch {
	case r.Incarnation > l.Incarnation:
		wasDead := l.State == MemberDead
		l.Incarnation = r.Incarnation
		l.State = r.State
		if r.State == MemberAlive {
			// An alive claim at a new incarnation is fresh evidence; reset
			// the silence clock so the horizon measures from now.
			l.lastSeen = m.now
			if wasDead {
				m.joins.Inc()
				m.tracer().Record(obs.Event{
					Time: m.now, Type: obs.EventMemberJoin,
					Node: m.self.ID, Peer: r.ID, Value: float64(r.Incarnation),
				})
			}
		}
		m.version++
		return true
	case r.Incarnation == l.Incarnation && r.State > l.State:
		l.State = r.State
		if r.State == MemberDead {
			m.deaths.Inc()
			m.tracer().Record(obs.Event{
				Time: m.now, Type: obs.EventMemberDead,
				Node: m.self.ID, Peer: r.ID, Value: float64(r.Incarnation),
			})
		} else if r.State == MemberSuspect {
			m.suspects.Inc()
			m.tracer().Record(obs.Event{
				Time: m.now, Type: obs.EventMemberSuspect,
				Node: m.self.ID, Peer: r.ID,
			})
		}
		m.version++
		return true
	}
	return false
}

// Members returns the full table (self first, then peers sorted by ID),
// dead tombstones included — this is the table beacons carry.
func (m *Membership) Members() []Member {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Member, 0, len(m.members)+1)
	out = append(out, m.self)
	for _, r := range m.order {
		out = append(out, r.Member)
	}
	return out
}

// RingMembers returns the IDs that belong on the placement ring: self plus
// every non-dead peer, sorted. Suspects stay on the ring — they keep their
// tasks until declared dead, so a transient stall does not thrash
// placement.
func (m *Membership) RingMembers() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := []string{m.self.ID}
	for id, r := range m.members {
		if r.State != MemberDead {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Digest hashes the ring membership — the sorted (ID, incarnation) pairs
// of self and non-dead peers. Converged nodes compute identical digests
// with no coordination, so operators (and the e2e harness) can compare
// /cluster outputs across shards to check convergence.
func (m *Membership) Digest() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	rows := make([]Member, 0, len(m.members)+1)
	rows = append(rows, m.self)
	for _, r := range m.members {
		if r.State != MemberDead {
			rows = append(rows, r.Member)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
	h := uint64(14695981039346656037)
	for _, r := range rows {
		h = mix64(h ^ fnv1a(r.ID) ^ (r.Incarnation+1)*0x9e3779b97f4a7c15)
	}
	return h
}

// Version reports the table version: it advances on every membership
// change (join, state transition, incarnation bump), so callers can cheaply
// detect "anything changed" between polls.
func (m *Membership) Version() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.version
}

// Self returns this shard's own row (current incarnation).
func (m *Membership) Self() Member {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.self
}

// AddrOf resolves a member ID to its transport address.
func (m *Membership) AddrOf(id string) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id == m.self.ID {
		return m.self.Addr, true
	}
	r, ok := m.members[id]
	if !ok || r.Addr == "" {
		return "", false
	}
	return r.Addr, true
}
