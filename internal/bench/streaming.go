package bench

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"volley/internal/stats"
)

// This file holds what audits the sketch-backed threshold path against the
// sorted-copy derivation it replaced: the rank-error check the committed
// workload presets are held to.

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
