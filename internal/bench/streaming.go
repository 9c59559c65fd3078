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

// This file is the measurement harness behind `make bench-streaming` /
// BENCH_streaming.json: it quantifies what the sketch-backed threshold path
// buys over the sorted-copy baseline — constant resident bytes per series
// as traces grow, cheap per-window threshold maintenance, feasibility of a
// million concurrent series, and the rank-error contract on the committed
// workload presets.

// StreamingMemoryPoint compares the per-series resident footprint of the
// two threshold-cache backends at one trace length.
type StreamingMemoryPoint struct {
	Steps                   int `json:"steps"`
	StreamingBytesPerSeries int `json:"streaming_bytes_per_series"`
	ExactBytesPerSeries     int `json:"exact_bytes_per_series"`
}

// StreamingMemoryProfile builds both cache backends over the system
// workload at each trace length and reports resident bytes per series —
// the O(1)-versus-O(n) comparison BENCH_streaming.json tracks.
func StreamingMemoryProfile(nSeries int, stepss []int, ks []float64) ([]StreamingMemoryPoint, error) {
	if nSeries < 1 {
		return nil, fmt.Errorf("bench: memory profile needs at least one series")
	}
	out := make([]StreamingMemoryPoint, 0, len(stepss))
	eng := serialEngine
	for _, steps := range stepss {
		series, err := GenSystem(nSeries, 1, steps, 1)
		if err != nil {
			return nil, err
		}
		stream, err := newThresholdCache(eng, series, ks)
		if err != nil {
			return nil, err
		}
		sorted, err := sortedCopies(eng, series)
		if err != nil {
			return nil, err
		}
		exactBytes := 0
		for _, s := range sorted {
			exactBytes += 8 * len(s)
		}
		out = append(out, StreamingMemoryPoint{
			Steps:                   steps,
			StreamingBytesPerSeries: stream.residentBytes() / stream.n(),
			ExactBytesPerSeries:     exactBytes / len(sorted),
		})
	}
	return out, nil
}

// StreamingSoakResult summarizes a many-series soak: every series holds a
// live streaming tracker at once, the configuration whose sorted-copy
// equivalent would not fit in memory.
type StreamingSoakResult struct {
	Series         int     `json:"series"`
	StepsPerSeries int     `json:"steps_per_series"`
	ResidentBytes  int64   `json:"resident_bytes"`
	BytesPerSeries float64 `json:"bytes_per_series"`
	// HypotheticalExactBytes is what sorted copies would cost for the same
	// series count at fullTrace steps (8 bytes per retained value) — the
	// configuration the streaming path makes feasible.
	HypotheticalExactBytes int64 `json:"hypothetical_exact_bytes"`
	HypotheticalTrace      int   `json:"hypothetical_trace_steps"`
}

// StreamingSoak keeps nSeries streaming trackers alive simultaneously,
// feeds each a synthetic diurnal series of steps observations generated on
// the fly (nothing is retained but the trackers), and reports the resident
// footprint.
func StreamingSoak(nSeries, steps, fullTrace int, ks []float64) (*StreamingSoakResult, error) {
	if nSeries < 1 || steps < 1 {
		return nil, fmt.Errorf("bench: soak needs at least one series and one step")
	}
	trackers := make([]*task.StreamingThresholds, nSeries)
	var resident int64
	for i := range trackers {
		st, err := task.NewStreamingThresholds(ks)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(int64(i) + 1))
		for j := 0; j < steps; j++ {
			st.Observe(20 + 5*math.Sin(float64(j)/200) + rng.NormFloat64())
		}
		trackers[i] = st
		resident += int64(st.ResidentBytes())
	}
	return &StreamingSoakResult{
		Series:                 nSeries,
		StepsPerSeries:         steps,
		ResidentBytes:          resident,
		BytesPerSeries:         float64(resident) / float64(nSeries),
		HypotheticalExactBytes: int64(nSeries) * int64(fullTrace) * 8,
		HypotheticalTrace:      fullTrace,
	}, nil
}

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

// Steps reports the retained trace length of the exact path.
func (h *MaintenanceHarness) Steps() int { return len(h.trace) }

// Window reports the refresh window size.
func (h *MaintenanceHarness) Window() int { return len(h.window) }

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
// audit for BENCH_streaming.json.
type StreamingErrorCheckResult struct {
	Workload     string  `json:"workload"`
	Series       int     `json:"series"`
	MaxRankError float64 `json:"max_rank_error"`
	Bound        float64 `json:"bound"`
}

// sortedCopies is the exact threshold derivation the sketches replaced: one
// sorted copy per series (O(n) memory each), into which task.Thresholds
// interpolates any k bit-identically to per-cell ThresholdForSelectivity.
// It survives as the oracle the streaming cache is audited against — here
// and in the equivalence tests — and as the memory baseline of
// StreamingMemoryProfile.
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

// PresetWorkloads generates the named preset's three evaluation workloads,
// keyed by name — the series StreamingErrorCheck audits.
func PresetWorkloads(p Preset) (map[string][][]float64, error) {
	net, err := GenNetwork(p.NetServers, p.NetVMsPerServer, p.NetWindows, p.NetFlowsPerWindow, p.Seed)
	if err != nil {
		return nil, err
	}
	sys, err := GenSystem(p.SysNodes, p.SysMetricsPerNode, p.SysSteps, p.Seed+100)
	if err != nil {
		return nil, err
	}
	app, err := GenApp(p.AppServers, p.AppObjects, p.AppTopObjects, p.AppSteps, p.Seed+200)
	if err != nil {
		return nil, err
	}
	return map[string][][]float64{
		"network":     net.Rho,
		"system":      sys,
		"application": app,
	}, nil
}
