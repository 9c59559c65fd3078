// Package alerts is Volley's stateful alert lifecycle registry. The rest
// of the stack decides *when* a violation is worth confirming (violation-
// likelihood adaptation, coordinator global polls); this package owns what
// happens after confirmation: one stateful alert per violation episode
// with in-flight dedup, an OPEN → ACKED → RESOLVED lifecycle (plus TTL
// expiry for episodes that never see a clearing poll), a bounded
// status-history per alert, an append-only JSONL history sink, and
// export/import hooks so open alerts ride the cluster's allowance
// snapshots across drain and crash handoff.
//
// Dedup model: an alert is keyed by (task, window), where window is the
// virtual timestamp of the poll that opened the episode. At most one
// live (open or acked) alert exists per task; a violation sustained for
// thousands of ticks re-raises into that alert — bumping last_seen, the
// occurrence counter and the peak — instead of duplicating it. The
// re-raise fast path is allocation-free (guarded by alloc tests).
//
// Design constraints match internal/obs: stdlib only, every method is a
// no-op on a nil *Registry, and the hot path (Raise on an existing
// episode, ObserveLocal on a known monitor) allocates nothing.
package alerts

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"volley/internal/obs"
)

// Status is an alert's lifecycle state.
type Status uint8

const (
	// StatusOpen: the violation episode is live and unacknowledged.
	StatusOpen Status = iota + 1
	// StatusAcked: an operator acknowledged the alert; re-raises still
	// refresh it, and it still auto-resolves when the violation clears.
	StatusAcked
	// StatusResolved: the episode ended — cleared by a non-violating
	// poll (actor "auto"), an operator, or task eviction.
	StatusResolved
	// StatusExpired: the episode crossed the registry TTL without a
	// re-raise or a clearing poll and was retired.
	StatusExpired
)

var statusNames = [...]string{
	StatusOpen:     "open",
	StatusAcked:    "acked",
	StatusResolved: "resolved",
	StatusExpired:  "expired",
}

// String implements fmt.Stringer.
func (s Status) String() string {
	if int(s) < len(statusNames) && statusNames[s] != "" {
		return statusNames[s]
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// MarshalJSON renders the status by name so history files and snapshot
// frames stay readable.
func (s Status) MarshalJSON() ([]byte, error) {
	return strconv.AppendQuote(nil, s.String()), nil
}

// UnmarshalJSON parses a status name (or a bare number, for robustness).
func (s *Status) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] != '"' {
		n, err := strconv.ParseUint(string(data), 10, 8)
		if err != nil {
			return err
		}
		*s = Status(n)
		return nil
	}
	name, err := strconv.Unquote(string(data))
	if err != nil {
		return err
	}
	for i, n := range statusNames {
		if n == name {
			*s = Status(i)
			return nil
		}
	}
	return fmt.Errorf("alerts: unknown status %q", name)
}

// live reports whether the status still occupies the per-task dedup slot.
func (s Status) live() bool { return s == StatusOpen || s == StatusAcked }

// Transition is one row of an alert's bounded status history.
type Transition struct {
	// At is the virtual timestamp of the transition.
	At time.Duration `json:"at"`
	// Status is the state entered.
	Status Status `json:"status"`
	// Actor is who drove it: "coord" (open), an operator name (ack /
	// resolve), "auto" (clearing poll), "ttl" (expiry), "evict", or
	// "handoff:<peer>" (imported from a predecessor's snapshot).
	Actor string `json:"actor,omitempty"`
}

// Alert is one stateful violation episode. Alerts serialize to JSON both
// in the history sink and inside coord.AllowanceState snapshot frames, so
// every field carries a tag.
type Alert struct {
	// ID is the registry-local identifier (fresh IDs are assigned on
	// import, so IDs are unique per process, not cluster-wide).
	ID uint64 `json:"id"`
	// Task is the monitoring task that violated.
	Task string `json:"task"`
	// Window is the episode key: the virtual timestamp of the global
	// poll that opened the alert. (task, window) identifies the episode
	// across handoffs.
	Window time.Duration `json:"window"`
	// Status is the current lifecycle state.
	Status Status `json:"status"`
	// RaisedAt and LastSeen bracket the episode so far; Occurrences
	// counts every confirming poll (1 on open, +1 per deduped re-raise).
	RaisedAt    time.Duration `json:"raised_at"`
	LastSeen    time.Duration `json:"last_seen"`
	ResolvedAt  time.Duration `json:"resolved_at,omitempty"`
	Occurrences uint64        `json:"occurrences"`
	// Value is the most recent polled total, Peak the episode maximum.
	Value float64 `json:"value"`
	Peak  float64 `json:"peak"`
	// Monitors is bounded per-monitor local-violation context: the last
	// reported value of each monitor that contributed to the episode.
	Monitors map[string]float64 `json:"monitors,omitempty"`
	// AckedBy records the acknowledging actor, when acked.
	AckedBy string `json:"acked_by,omitempty"`
	// History is the bounded status-transition log, oldest first.
	History []Transition `json:"history,omitempty"`
}

// MarshalJSON encodes the alert as its fields say, except that a Value or
// Peak JSON has no number for (NaN, ±Inf: a polled total that overflowed)
// is written as null — encoding/json would refuse the whole alert, and with
// it GET /alerts — as the daemon's stdout alert line writes it.
func (a Alert) MarshalJSON() ([]byte, error) {
	type fields Alert // Alert's fields without this method
	if isFinite(a.Value) && isFinite(a.Peak) {
		return json.Marshal(fields(a))
	}
	return json.Marshal(struct {
		fields
		Value jsonFloat `json:"value"`
		Peak  jsonFloat `json:"peak"`
	}{fields(a), jsonFloat(a.Value), jsonFloat(a.Peak)})
}

// jsonFloat is a float64 that encodes as null where it is not finite.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	if !isFinite(float64(f)) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(f))
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// clone deep-copies an alert for import and the read APIs.
func (a *Alert) clone() Alert {
	var out Alert
	a.copyInto(&out)
	return out
}

// copyInto deep-copies a over *out, reusing the Monitors map and the History
// array *out already has. A reused map stays, empty, where a has none.
func (a *Alert) copyInto(out *Alert) {
	mons, hist := out.Monitors, out.History[:0]
	*out = *a
	clear(mons)
	if mons == nil && a.Monitors != nil {
		mons = make(map[string]float64, len(a.Monitors))
	}
	for k, v := range a.Monitors {
		mons[k] = v
	}
	out.Monitors = mons
	out.History = append(hist, a.History...)
}

// Defaults for the bounded retention knobs.
const (
	DefaultMaxResolved = 64
	DefaultMaxHistory  = 16
	DefaultMaxMonitors = 16
)

// Config parameterizes a Registry. The zero value works: no TTL, default
// bounds, detached metrics, no tracer, no history sink.
type Config struct {
	// Node names the owning process in traces and history rows.
	Node string
	// TTL retires live alerts not re-raised for this long (0 = never).
	// Needed because polls only start on local violations: a violation
	// that simply stops never produces a clearing poll, so TTL is the
	// backstop that closes the episode.
	TTL time.Duration
	// MaxResolved bounds retained closed alerts (resolved/expired).
	MaxResolved int
	// MaxHistory bounds each alert's transition log.
	MaxHistory int
	// MaxMonitors bounds each alert's per-monitor context map.
	MaxMonitors int
	// Metrics receives the volley_alerts_* families (nil = detached).
	Metrics *obs.Registry
	// Tracer receives alert lifecycle events (nil = no tracing).
	Tracer *obs.Tracer
	// History, when set, receives one JSON object per status transition
	// (append-only JSONL). Writes happen under the registry lock; the
	// first write error disables the sink (SinkErr reports it).
	History io.Writer
}

// historyRecord is one JSONL history row: an alert identity plus the
// transition that just happened.
type historyRecord struct {
	Node        string        `json:"node,omitempty"`
	Task        string        `json:"task"`
	ID          uint64        `json:"id"`
	Window      time.Duration `json:"window"`
	Status      string        `json:"status"`
	At          time.Duration `json:"at"`
	Actor       string        `json:"actor,omitempty"`
	Value       jsonFloat     `json:"value,omitempty"`
	Occurrences uint64        `json:"occurrences,omitempty"`
}

// Registry holds the live and recently closed alerts of one process (or
// one in-process cluster). All methods are safe for concurrent use and
// no-ops on a nil receiver.
type Registry struct {
	cfg Config

	mu      sync.Mutex
	nextID  uint64
	open    map[string]*Alert // task → live alert (the dedup slot)
	byID    map[uint64]*Alert
	closed  []*Alert // oldest first, bounded by MaxResolved
	pending map[string]map[string]float64
	enc     *json.Encoder
	sinkErr error

	raised   *obs.Counter
	deduped  *obs.Counter
	resolved *obs.Counter
	expired  *obs.Counter
	lost     *obs.Counter
	ttr      *obs.Histogram
}

// TTRBuckets are the time-to-resolve histogram bounds, in (virtual)
// seconds: sub-second clears through half-hour episodes.
var TTRBuckets = []float64{0.1, 0.5, 1, 2, 5, 10, 30, 60, 300, 1800}

// New builds a registry and registers the volley_alerts_* metric families.
// Attach at most one alerts registry per metrics registry — the gauge
// functions are registered by name, so a second registry's gauges would be
// silently dropped.
func New(cfg Config) *Registry {
	if cfg.MaxResolved <= 0 {
		cfg.MaxResolved = DefaultMaxResolved
	}
	if cfg.MaxHistory <= 0 {
		cfg.MaxHistory = DefaultMaxHistory
	}
	if cfg.MaxMonitors <= 0 {
		cfg.MaxMonitors = DefaultMaxMonitors
	}
	r := &Registry{
		cfg:  cfg,
		open: make(map[string]*Alert),
		byID: make(map[uint64]*Alert),
	}
	if cfg.History != nil {
		r.enc = json.NewEncoder(cfg.History)
	}
	m := cfg.Metrics
	r.raised = m.Counter("volley_alerts_raised_total", "Alerts opened (one per violation episode).")
	r.deduped = m.Counter("volley_alerts_deduped_total", "Re-raises absorbed by an already-live alert.")
	r.resolved = m.Counter("volley_alerts_resolved_total", "Alerts resolved (auto, operator, or eviction).")
	r.expired = m.Counter("volley_alerts_expired_total", "Live alerts retired by TTL without a clearing poll.")
	r.lost = m.Counter("volley_alerts_lost_total", "Cold-started tasks whose open-alert context was lost.")
	r.ttr = m.Histogram("volley_alerts_time_to_resolve_seconds",
		"Episode duration from raise to resolution, in seconds.", TTRBuckets)
	m.GaugeFunc("volley_alerts_open", "Live unacknowledged alerts.",
		func() float64 { return r.statusCount(StatusOpen) })
	m.GaugeFunc("volley_alerts_acked", "Live acknowledged alerts.",
		func() float64 { return r.statusCount(StatusAcked) })
	return r
}

func (r *Registry) statusCount(st Status) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, a := range r.open {
		if a.Status == st {
			n++
		}
	}
	return float64(n)
}

// appendTransitionLocked records a status change on the alert's bounded
// history and streams it to the JSONL sink. Caller holds r.mu.
func (r *Registry) appendTransitionLocked(a *Alert, tr Transition) {
	if len(a.History) >= r.cfg.MaxHistory {
		copy(a.History, a.History[1:])
		a.History = a.History[:len(a.History)-1]
	}
	a.History = append(a.History, tr)
	r.sinkLocked(historyRecord{
		Node:        r.cfg.Node,
		Task:        a.Task,
		ID:          a.ID,
		Window:      a.Window,
		Status:      tr.Status.String(),
		At:          tr.At,
		Actor:       tr.Actor,
		Value:       jsonFloat(a.Value),
		Occurrences: a.Occurrences,
	})
}

func (r *Registry) sinkLocked(rec historyRecord) {
	if r.enc == nil || r.sinkErr != nil {
		return
	}
	if err := r.enc.Encode(rec); err != nil {
		r.sinkErr = err
		r.enc = nil
	}
}

// closeLocked moves a live alert out of the dedup slot into the bounded
// closed ring. Caller holds r.mu.
func (r *Registry) closeLocked(a *Alert) {
	delete(r.open, a.Task)
	if len(r.closed) >= r.cfg.MaxResolved {
		evict := r.closed[0]
		copy(r.closed, r.closed[1:])
		r.closed = r.closed[:len(r.closed)-1]
		delete(r.byID, evict.ID)
	}
	r.closed = append(r.closed, a)
}

// Raise reports a confirmed global violation. If the task already has a
// live alert the raise dedups into it — last_seen, occurrence counter,
// value and peak update, volley_alerts_deduped_total increments, and
// nothing allocates. Otherwise a new OPEN alert is created with window =
// now. Returns the alert ID and whether a new alert was opened.
func (r *Registry) Raise(task string, now time.Duration, value float64) (uint64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	if a := r.open[task]; a != nil {
		a.LastSeen = now
		a.Occurrences++
		a.Value = value
		if value > a.Peak {
			a.Peak = value
		}
		id := a.ID
		r.mu.Unlock()
		r.deduped.Inc()
		return id, false
	}
	r.nextID++
	a := &Alert{
		ID:          r.nextID,
		Task:        task,
		Window:      now,
		Status:      StatusOpen,
		RaisedAt:    now,
		LastSeen:    now,
		Occurrences: 1,
		Value:       value,
		Peak:        value,
		Monitors:    r.pending[task],
	}
	delete(r.pending, task)
	r.open[task] = a
	r.byID[a.ID] = a
	r.appendTransitionLocked(a, Transition{At: now, Status: StatusOpen, Actor: "coord"})
	r.mu.Unlock()
	r.raised.Inc()
	r.cfg.Tracer.Record(obs.Event{
		Type: obs.EventAlertOpen, Node: r.cfg.Node, Task: task,
		Time: now, Value: value, Interval: int(a.ID),
	})
	return a.ID, true
}

// Clear reports a completed global poll that did NOT confirm a violation:
// the live alert for the task, if any, auto-resolves.
func (r *Registry) Clear(task string, now time.Duration, value float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	a := r.open[task]
	if a == nil {
		r.mu.Unlock()
		return
	}
	a.Value = value
	r.resolveLocked(a, now, "auto")
	r.mu.Unlock()
}

// resolveLocked transitions a live alert to RESOLVED and retires it.
// Caller holds r.mu; the trace is emitted inside (Tracer locks its own).
func (r *Registry) resolveLocked(a *Alert, now time.Duration, actor string) {
	a.Status = StatusResolved
	a.ResolvedAt = now
	r.appendTransitionLocked(a, Transition{At: now, Status: StatusResolved, Actor: actor})
	r.closeLocked(a)
	r.resolved.Inc()
	r.ttr.Observe((now - a.RaisedAt).Seconds())
	r.cfg.Tracer.Record(obs.Event{
		Type: obs.EventAlertResolve, Node: r.cfg.Node, Task: a.Task,
		Peer: actor, Time: now, Value: a.Value, Interval: int(a.ID),
	})
}

// ErrNotFound and ErrBadState are the operator-API failure modes.
var (
	ErrNotFound = errors.New("alerts: no such alert")
	ErrBadState = errors.New("alerts: invalid lifecycle transition")
)

// Ack acknowledges an OPEN alert (OPEN → ACKED only).
func (r *Registry) Ack(id uint64, now time.Duration, actor string) error {
	if r == nil {
		return ErrNotFound
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.byID[id]
	if a == nil {
		return ErrNotFound
	}
	if a.Status != StatusOpen {
		return fmt.Errorf("%w: ack on %s alert %d", ErrBadState, a.Status, id)
	}
	a.Status = StatusAcked
	a.AckedBy = actor
	r.appendTransitionLocked(a, Transition{At: now, Status: StatusAcked, Actor: actor})
	r.cfg.Tracer.Record(obs.Event{
		Type: obs.EventAlertAck, Node: r.cfg.Node, Task: a.Task,
		Peer: actor, Time: now, Interval: int(a.ID),
	})
	return nil
}

// Resolve closes a live alert by operator action (OPEN or ACKED →
// RESOLVED).
func (r *Registry) Resolve(id uint64, now time.Duration, actor string) error {
	if r == nil {
		return ErrNotFound
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.byID[id]
	if a == nil {
		return ErrNotFound
	}
	if !a.Status.live() {
		return fmt.Errorf("%w: resolve on %s alert %d", ErrBadState, a.Status, id)
	}
	if actor == "" {
		actor = "operator"
	}
	r.resolveLocked(a, now, actor)
	return nil
}

// Tick retires live alerts not re-raised within the TTL (no-op with
// TTL 0). Returns how many expired. Call it from the owning layer's
// clock (cluster tick loop, daemon sample loop).
func (r *Registry) Tick(now time.Duration) int {
	if r == nil || r.cfg.TTL <= 0 {
		return 0
	}
	r.mu.Lock()
	var stale []*Alert
	for _, a := range r.open {
		if now-a.LastSeen >= r.cfg.TTL {
			stale = append(stale, a)
		}
	}
	for _, a := range stale {
		a.Status = StatusExpired
		a.ResolvedAt = now
		r.appendTransitionLocked(a, Transition{At: now, Status: StatusExpired, Actor: "ttl"})
		r.closeLocked(a)
		r.expired.Add(1)
		r.cfg.Tracer.Record(obs.Event{
			Type: obs.EventAlertExpire, Node: r.cfg.Node, Task: a.Task,
			Time: now, Interval: int(a.ID),
		})
	}
	n := len(stale)
	r.mu.Unlock()
	return n
}

// ObserveLocal feeds one monitor's local violation into the task's
// context: the live alert's bounded Monitors map when an episode is open,
// otherwise a bounded pending map that seeds the next alert. Updating an
// already-known monitor allocates nothing.
func (r *Registry) ObserveLocal(task, monitor string, now time.Duration, value float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if a := r.open[task]; a != nil {
		if a.Monitors == nil {
			a.Monitors = make(map[string]float64)
		}
		if _, ok := a.Monitors[monitor]; ok || len(a.Monitors) < r.cfg.MaxMonitors {
			a.Monitors[monitor] = value
		}
		r.mu.Unlock()
		return
	}
	p := r.pending[task]
	if p == nil {
		if r.pending == nil {
			r.pending = make(map[string]map[string]float64)
		}
		p = make(map[string]float64)
		r.pending[task] = p
	}
	if _, ok := p[monitor]; ok || len(p) < r.cfg.MaxMonitors {
		p[monitor] = value
	}
	r.mu.Unlock()
}

// ExportOpen deep-copies the task's live alerts for snapshotting (today
// at most one, but the slice keeps the frame format general).
func (r *Registry) ExportOpen(task string) []Alert { return r.ExportOpenInto(task, nil) }

// ExportOpenInto is ExportOpen into a slice the caller owns and reuses: dst
// is truncated and refilled, and each alert it has room for keeps its
// Monitors map and History array, cleared and refilled, so a caller that
// only serializes the result allocates nothing per export.
func (r *Registry) ExportOpenInto(task string, dst []Alert) []Alert {
	dst = dst[:0]
	if r == nil {
		return dst
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.open[task]
	if a == nil {
		return dst
	}
	if cap(dst) == 0 {
		dst = make([]Alert, 0, 1)
	}
	dst = dst[:1]
	a.copyInto(&dst[0])
	return dst
}

// ImportOpen installs alerts recovered from a predecessor's snapshot
// frame. Import is idempotent: with no live alert the incoming one is
// installed under a fresh local ID with a handoff transition; an existing
// alert with the same (task, window) merges — max of last_seen,
// occurrences and peak — so re-importing the same frame is a no-op; a
// live alert from a *different* window wins over the import (the local
// episode is fresher) and the import counts as deduped.
func (r *Registry) ImportOpen(task string, in []Alert, now time.Duration, peer string) {
	if r == nil {
		return
	}
	for i := range in {
		src := &in[i]
		if src.Task != task || !src.Status.live() {
			continue
		}
		r.mu.Lock()
		if a := r.open[task]; a != nil {
			if a.Window == src.Window {
				if src.LastSeen > a.LastSeen {
					a.LastSeen = src.LastSeen
					a.Value = src.Value
				}
				if src.Occurrences > a.Occurrences {
					a.Occurrences = src.Occurrences
				}
				if src.Peak > a.Peak {
					a.Peak = src.Peak
				}
				for m, v := range src.Monitors {
					if a.Monitors == nil {
						a.Monitors = make(map[string]float64)
					}
					if _, ok := a.Monitors[m]; ok || len(a.Monitors) < r.cfg.MaxMonitors {
						a.Monitors[m] = v
					}
				}
				r.mu.Unlock()
				continue
			}
			r.mu.Unlock()
			r.deduped.Inc()
			continue
		}
		r.nextID++
		a := src.clone()
		a.ID = r.nextID
		r.open[task] = &a
		r.byID[a.ID] = &a
		r.appendTransitionLocked(&a, Transition{At: now, Status: a.Status, Actor: "handoff:" + peer})
		r.mu.Unlock()
		r.cfg.Tracer.Record(obs.Event{
			Type: obs.EventAlertHandoff, Node: r.cfg.Node, Task: task,
			Peer: peer, Time: now, Value: a.Value, Interval: int(a.ID),
		})
	}
}

// Lost records that a task cold-started with no recovered alert context:
// whether an alert was open at the crashed owner is unknowable, so the
// loss is counted once per cold-started task, traced, and written to the
// history sink.
func (r *Registry) Lost(task string, now time.Duration, peer string) {
	if r == nil {
		return
	}
	r.lost.Inc()
	r.mu.Lock()
	r.sinkLocked(historyRecord{
		Node: r.cfg.Node, Task: task, Status: "lost", At: now, Actor: peer,
	})
	r.mu.Unlock()
	r.cfg.Tracer.Record(obs.Event{
		Type: obs.EventAlertsLost, Node: r.cfg.Node, Task: task,
		Peer: peer, Time: now,
	})
}

// Forget discards the task's live alert without a lifecycle transition:
// the episode moved to another node with the task (graceful release
// handoff), it did not end, so nothing is resolved, expired or written to
// the history sink. Pending context is discarded with it.
func (r *Registry) Forget(task string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	delete(r.pending, task)
	if a := r.open[task]; a != nil {
		delete(r.open, task)
		delete(r.byID, a.ID)
	}
	r.mu.Unlock()
}

// DropTask closes the task's live alert on eviction (actor "evict") and
// discards its pending context.
func (r *Registry) DropTask(task string, now time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	delete(r.pending, task)
	a := r.open[task]
	if a != nil {
		r.resolveLocked(a, now, "evict")
	}
	r.mu.Unlock()
}

// Get returns a copy of the alert with the given ID (live or retained).
func (r *Registry) Get(id uint64) (Alert, bool) {
	if r == nil {
		return Alert{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.byID[id]
	if a == nil {
		return Alert{}, false
	}
	return a.clone(), true
}

// List returns copies of every known alert: live first, then retained
// closed ones, each group in ascending ID order.
func (r *Registry) List() []Alert {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Alert, 0, len(r.open)+len(r.closed))
	for _, a := range r.open {
		out = append(out, a.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	for _, a := range r.closed {
		out = append(out, a.clone())
	}
	return out
}

// SinkErr reports the write error that disabled the history sink, if any.
func (r *Registry) SinkErr() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sinkErr
}
