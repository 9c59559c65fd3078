package core

import (
	"fmt"
	"math"
)

// SamplerState is a serializable snapshot of a Sampler's adaptive state.
// A monitor that persists it across restarts resumes with its learned
// interval and δ statistics instead of cold-starting at the default
// interval (and re-paying the whole patience climb).
type SamplerState struct {
	Interval  int     `json:"interval"`
	Streak    int     `json:"streak"`
	LastValue float64 `json:"lastValue"`
	HasLast   bool    `json:"hasLast"`
	LastBound float64 `json:"lastBound"`

	DeltaN        int     `json:"deltaN"`
	DeltaMean     float64 `json:"deltaMean"`
	DeltaVariance float64 `json:"deltaVariance"`

	Samples   uint64 `json:"samples"`
	Resets    uint64 `json:"resets"`
	Increases uint64 `json:"increases"`
}

// Snapshot captures the sampler's adaptive state.
func (s *Sampler) Snapshot() SamplerState {
	return SamplerState{
		Interval:      s.interval,
		Streak:        s.streak,
		LastValue:     s.lastValue,
		HasLast:       s.hasLast,
		LastBound:     s.lastBound,
		DeltaN:        s.delta.N(),
		DeltaMean:     s.delta.Mean(),
		DeltaVariance: s.delta.Variance(),
		Samples:       s.samples,
		Resets:        s.resets,
		Increases:     s.increases,
	}
}

// Restore replaces the sampler's adaptive state with a snapshot (typically
// taken by the same configuration before a restart). The configuration
// itself — threshold, allowance, limits — is not part of the snapshot and
// stays as constructed. Invalid snapshots are rejected.
func (s *Sampler) Restore(st SamplerState) error {
	if st.Interval < 1 || st.Interval > s.cfg.MaxInterval {
		return fmt.Errorf("core: snapshot interval %d outside [1, %d]", st.Interval, s.cfg.MaxInterval)
	}
	if st.Streak < 0 {
		return fmt.Errorf("core: snapshot streak %d < 0", st.Streak)
	}
	if st.DeltaN < 0 {
		return fmt.Errorf("core: snapshot delta count %d < 0", st.DeltaN)
	}
	if st.DeltaVariance < 0 || math.IsNaN(st.DeltaVariance) || math.IsNaN(st.DeltaMean) {
		return fmt.Errorf("core: snapshot delta moments invalid (mean %v, variance %v)",
			st.DeltaMean, st.DeltaVariance)
	}
	if st.LastBound < 0 || st.LastBound > 1 || math.IsNaN(st.LastBound) {
		return fmt.Errorf("core: snapshot bound %v outside [0, 1]", st.LastBound)
	}
	s.setInterval(st.Interval)
	s.streak = st.Streak
	s.lastValue = st.LastValue
	s.hasLast = st.HasLast
	s.lastBound = st.LastBound
	s.delta.Restore(st.DeltaN, st.DeltaMean, st.DeltaVariance)
	s.samples = st.Samples
	s.resets = st.Resets
	s.increases = st.Increases
	return nil
}
