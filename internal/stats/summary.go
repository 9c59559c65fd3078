package stats

import (
	"fmt"
	"math"
	"sort"
)

// BoxSummary is the five-number summary (plus mean and count) used to render
// the box plots of Figure 6: quartiles with 1.5·IQR whiskers clipped to the
// data range.
type BoxSummary struct {
	N           int
	Min, Max    float64
	Q1, Med, Q3 float64
	LowWhisker  float64
	HighWhisker float64
	Mean        float64
}

// Summarize computes a BoxSummary of values. It returns a zero summary with
// N = 0 for empty input. Values must have finite pairwise differences
// (max − min below math.MaxFloat64); beyond that float64 arithmetic itself
// overflows.
func Summarize(values []float64) BoxSummary {
	if len(values) == 0 {
		return BoxSummary{}
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)

	// Incremental mean (Welford): a plain sum overflows for values near
	// ±MaxFloat64, pushing the mean outside [min, max].
	var mean Online
	for _, v := range sorted {
		mean.Observe(v)
	}
	s := BoxSummary{
		N:    len(sorted),
		Min:  sorted[0],
		Max:  sorted[len(sorted)-1],
		Q1:   quantileSorted(sorted, 0.25),
		Med:  quantileSorted(sorted, 0.5),
		Q3:   quantileSorted(sorted, 0.75),
		Mean: mean.Mean(),
	}
	iqr := s.Q3 - s.Q1
	s.LowWhisker = math.Max(s.Min, s.Q1-1.5*iqr)
	s.HighWhisker = math.Min(s.Max, s.Q3+1.5*iqr)
	return s
}

// String renders the summary as a compact single-line report.
func (s BoxSummary) String() string {
	return fmt.Sprintf("n=%d min=%.3f q1=%.3f med=%.3f q3=%.3f max=%.3f mean=%.3f",
		s.N, s.Min, s.Q1, s.Med, s.Q3, s.Max, s.Mean)
}

// Mean computes the arithmetic mean of a slice; it returns NaN for an empty
// slice.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
