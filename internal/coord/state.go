package coord

import (
	"fmt"
	"math"
	"time"

	"volley/internal/alerts"
)

// AllowanceState is a serializable snapshot of a coordinator's allowance
// bookkeeping, keyed by monitor address: the per-monitor assignments, the
// slices reclaimed from dead monitors, the liveness ledger, and the clock
// position that keeps the liveness horizon unit-correct after a restore.
//
// It exists for two consumers: task handoff in the sharded cluster layer
// (a successor coordinator resumes another's allowance state without a
// cold restart) and tests, which read reclaimed amounts and liveness
// through the snapshot instead of poking coordinator internals.
type AllowanceState struct {
	// Task names the task the snapshot belongs to.
	Task string `json:"task"`
	// Epoch is the snapshot's version: it increases monotonically across
	// exports of the same logical coordinator, surviving handoffs and
	// crash recovery (ImportAllowance seeds the successor's counter from
	// it), so a replica store can reject a stale frame that arrives after
	// a fresher one.
	Epoch uint64 `json:"epoch,omitempty"`
	// Err is the task-level error allowance in force at the snapshot.
	Err float64 `json:"err"`
	// Now and Ticks are the coordinator's clock position; restoring them
	// keeps the tick-unit estimate (and with it the DeadAfter horizon)
	// correct across a handoff.
	Now   time.Duration `json:"now"`
	Ticks uint64        `json:"ticks"`
	// Assignments is the current per-monitor error allowance.
	Assignments map[string]float64 `json:"assignments"`
	// Reclaimed is the allowance taken from each dead monitor (zero
	// entries omitted), owed back on resurrection.
	Reclaimed map[string]float64 `json:"reclaimed,omitempty"`
	// Dead lists the monitors currently declared dead.
	Dead []string `json:"dead,omitempty"`
	// LastSeen records when each monitor was last heard from; monitors
	// never heard from are absent.
	LastSeen map[string]time.Duration `json:"lastSeen,omitempty"`
	// Alerts carries the task's live (open/acked) alerts so a successor
	// resumes the violation episode instead of losing it; absent when the
	// coordinator has no alert registry or no live alert.
	Alerts []alerts.Alert `json:"alerts,omitempty"`
}

// ExportAllowance captures the coordinator's allowance and liveness state.
// In-flight poll state is deliberately excluded: an interrupted poll is
// re-triggered by the next local violation, while allowance is cumulative
// state that would otherwise be lost.
func (c *Coordinator) ExportAllowance() AllowanceState {
	var st AllowanceState
	c.ExportAllowanceInto(&st)
	return st
}

// ExportAllowanceInto is ExportAllowance into a state the caller owns and
// reuses: its maps are cleared and refilled and its Dead and Alerts lists
// are rewritten in place (an alert's own map and history too), so a caller
// that only serializes the result (the replicator, every few ticks per
// task) allocates nothing per export. A map the state does not have yet is
// made when first needed and kept, so a reused state may hold an empty map
// where a fresh one holds nil.
func (c *Coordinator) ExportAllowanceInto(st *AllowanceState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	st.Task = c.cfg.Task
	st.Epoch = c.epoch
	st.Err = c.cfg.Err
	st.Now = c.now
	st.Ticks = c.ticks
	if st.Assignments == nil {
		st.Assignments = make(map[string]float64, len(c.assign))
	}
	clear(st.Assignments)
	clear(st.Reclaimed)
	clear(st.LastSeen)
	st.Dead = st.Dead[:0]
	for i, m := range c.cfg.Monitors {
		st.Assignments[m] = c.assign[i]
		if c.reclaimed[i] != 0 {
			if st.Reclaimed == nil {
				st.Reclaimed = make(map[string]float64)
			}
			st.Reclaimed[m] = c.reclaimed[i]
		}
		if c.dead[i] {
			st.Dead = append(st.Dead, m)
		}
		if c.heard[i] {
			if st.LastSeen == nil {
				st.LastSeen = make(map[string]time.Duration)
			}
			st.LastSeen[m] = c.lastSeen[i]
		}
	}
	st.Alerts = c.cfg.Alerts.ExportOpenInto(c.cfg.Task, st.Alerts)
}

// ImportAllowance resumes from a snapshot taken by a coordinator for the
// same task and monitor set. The imported assignments are re-announced on
// the next Tick, so monitors re-sync even if the final assignments of the
// previous incarnation never reached them. Any in-flight poll is abandoned
// (the next local violation starts a fresh one).
func (c *Coordinator) ImportAllowance(st AllowanceState) error {
	if st.Task != "" && st.Task != c.cfg.Task {
		return fmt.Errorf("coord %s: snapshot for task %q, want %q", c.cfg.ID, st.Task, c.cfg.Task)
	}
	if st.Now < 0 {
		return fmt.Errorf("coord %s: snapshot clock %v < 0", c.cfg.ID, st.Now)
	}
	var sum float64
	for m, e := range st.Assignments {
		if _, ok := c.index[m]; !ok {
			return fmt.Errorf("coord %s: snapshot assignment for unknown monitor %q", c.cfg.ID, m)
		}
		if math.IsNaN(e) || e < 0 {
			return fmt.Errorf("coord %s: snapshot assignment %v for %q outside [0, err]", c.cfg.ID, e, m)
		}
		sum += e
	}
	if sum > c.cfg.Err*(1+1e-9)+1e-12 {
		return fmt.Errorf("coord %s: snapshot assignments sum %v exceeds task allowance %v", c.cfg.ID, sum, c.cfg.Err)
	}
	for m, r := range st.Reclaimed {
		if _, ok := c.index[m]; !ok {
			return fmt.Errorf("coord %s: snapshot reclaim for unknown monitor %q", c.cfg.ID, m)
		}
		if math.IsNaN(r) || r < 0 {
			return fmt.Errorf("coord %s: snapshot reclaim %v for %q invalid", c.cfg.ID, r, m)
		}
	}
	for _, m := range st.Dead {
		if _, ok := c.index[m]; !ok {
			return fmt.Errorf("coord %s: snapshot death of unknown monitor %q", c.cfg.ID, m)
		}
	}
	for m := range st.LastSeen {
		if _, ok := c.index[m]; !ok {
			return fmt.Errorf("coord %s: snapshot lastSeen for unknown monitor %q", c.cfg.ID, m)
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	for i, m := range c.cfg.Monitors {
		if e, ok := st.Assignments[m]; ok {
			c.assign[i] = e
		}
		c.reclaimed[i] = st.Reclaimed[m]
		c.dead[i] = false
		if ls, ok := st.LastSeen[m]; ok {
			c.lastSeen[i] = ls
			c.heard[i] = true
		} else {
			c.lastSeen[i] = 0
			c.heard[i] = false
		}
		// Stale per-report state does not survive the transfer.
		c.yields[i] = yieldReport{}
	}
	for _, m := range st.Dead {
		c.dead[c.index[m]] = true
	}
	c.now = st.Now
	c.ticks = st.Ticks
	// Continue the snapshot's epoch sequence: the successor's next export
	// is versioned strictly after everything the predecessor ever shipped,
	// so replicas can tell its frames from stale ones still in flight.
	if st.Epoch > c.epoch {
		c.epoch = st.Epoch
	}
	c.resetPollLocked()
	// Re-announce the imported assignments on the next Tick.
	c.initialSent = false
	// Resume the snapshot's live alerts. Import is idempotent (same
	// episode merges), so re-importing a frame — or an in-process handoff
	// exporting into the same registry — cannot duplicate an alert.
	c.cfg.Alerts.ImportOpen(c.cfg.Task, st.Alerts, st.Now, "snapshot")
	return nil
}
