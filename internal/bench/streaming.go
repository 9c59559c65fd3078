package bench

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"volley/internal/stats"
	"volley/internal/task"
)

// This file holds what audits the sketch-backed threshold path against the
// sorted-copy derivation it replaced: the refresh harness whose streaming
// side must not allocate, and the rank-error check the committed workload
// presets are held to.

// MaintenanceHarness measures the cost of keeping a series' threshold grid
// current as a window of new observations arrives — the periodic refresh a
// long-running monitor pays. The exact baseline re-copies and re-sorts the
// whole retained trace per refresh; the streaming path absorbs the window
// into the sketch and reads the grid back.
type MaintenanceHarness struct {
	trace   []float64
	scratch []float64
	stream  *task.StreamingThresholds
	ks      []float64
	out     []float64
	window  []float64
}

// NewMaintenanceHarness builds both paths over a synthetic trace of the
// given length and pre-generates one refresh window.
func NewMaintenanceHarness(steps, window int, ks []float64, seed int64) (*MaintenanceHarness, error) {
	if steps < 1 || window < 1 {
		return nil, fmt.Errorf("bench: maintenance harness needs positive steps and window")
	}
	st, err := task.NewStreamingThresholds(ks)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	gen := func(i int) float64 { return 20 + 5*math.Sin(float64(i)/200) + rng.NormFloat64() }
	trace := make([]float64, steps)
	for i := range trace {
		trace[i] = gen(i)
		st.Observe(trace[i])
	}
	win := make([]float64, window)
	for i := range win {
		win[i] = gen(steps + i)
	}
	return &MaintenanceHarness{
		trace:   trace,
		scratch: make([]float64, 0, steps+window),
		stream:  st,
		ks:      append([]float64(nil), ks...),
		out:     make([]float64, 0, len(ks)),
		window:  win,
	}, nil
}

// ExactRefresh performs one sorted-copy refresh: copy trace+window, sort,
// derive the grid. Returns the thresholds (valid until the next call).
func (h *MaintenanceHarness) ExactRefresh() ([]float64, error) {
	h.scratch = h.scratch[:0]
	h.scratch = append(h.scratch, h.trace...)
	h.scratch = append(h.scratch, h.window...)
	sort.Float64s(h.scratch)
	return task.Thresholds(h.scratch, h.ks)
}

// StreamingRefresh performs one sketch refresh: absorb the window and read
// the grid back. It does not allocate (the zero-alloc guard test gates
// this). Returns the thresholds (valid until the next call).
func (h *MaintenanceHarness) StreamingRefresh() ([]float64, error) {
	for _, v := range h.window {
		h.stream.Observe(v)
	}
	out, err := h.stream.AppendThresholds(h.out[:0])
	if err != nil {
		return nil, err
	}
	h.out = out
	return out, nil
}

// StreamingErrorCheckResult is one workload's sketch-versus-exact accuracy
// audit.
type StreamingErrorCheckResult struct {
	Workload     string  `json:"workload"`
	Series       int     `json:"series"`
	MaxRankError float64 `json:"max_rank_error"`
	Bound        float64 `json:"bound"`
}

// sortedCopies is the exact threshold derivation the sketches replaced: one
// sorted copy per series (O(n) memory each), into which task.Thresholds
// interpolates any k bit-identically to per-cell ThresholdForSelectivity.
// It survives as the oracle the streaming cache is audited against, here
// and in the equivalence tests.
func sortedCopies(eng *Engine, series [][]float64) ([][]float64, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("bench: no series")
	}
	sorted := make([][]float64, len(series))
	err := eng.ForEach(len(series), func(i int) error {
		if len(series[i]) == 0 {
			return fmt.Errorf("bench: series %d is empty", i)
		}
		sorted[i] = slices.Clone(series[i])
		sort.Float64s(sorted[i])
		return nil
	})
	return sorted, err
}

// StreamingErrorCheck builds the streaming cache and the exact sorted copies
// over the given series and reports the worst rank error of any streaming
// grid threshold against the series' true empirical distribution.
func StreamingErrorCheck(workload string, series [][]float64, ks []float64) (*StreamingErrorCheckResult, error) {
	eng := NewEngine(0)
	exact, err := sortedCopies(eng, series)
	if err != nil {
		return nil, err
	}
	stream, err := newThresholdCache(eng, series, ks)
	if err != nil {
		return nil, err
	}
	grid, err := stream.grid(ks)
	if err != nil {
		return nil, err
	}
	maxErr := 0.0
	for i, sorted := range exact {
		for ki, k := range ks {
			q := (100 - k) / 100
			got := grid[ki][i]
			lo := sort.SearchFloat64s(sorted, got)
			hi := sort.Search(len(sorted), func(j int) bool { return sorted[j] > got })
			rank := (float64(lo) + float64(hi)) / 2 / float64(len(sorted)-1)
			if re := math.Abs(rank - q); re > maxErr {
				maxErr = re
			}
		}
	}
	return &StreamingErrorCheckResult{
		Workload:     workload,
		Series:       len(series),
		MaxRankError: maxErr,
		Bound:        stats.SketchRankErrorBound,
	}, nil
}
