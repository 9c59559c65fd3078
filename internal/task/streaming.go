package task

import (
	"fmt"
	"unsafe"

	"volley/internal/stats"
)

// StreamingThresholds answers the selectivity-to-threshold mapping of
// ThresholdForSelectivity without retaining the observed series: a quantile
// sketch (stats.Sketch) summarizes everything observed in fixed memory and
// with no allocation per observation, and answers the (100−k)-th percentile
// for any selectivity k. Where Thresholds needs a sorted copy of the full
// trace — O(n) bytes per series — a StreamingThresholds is one object of
// constant size however long the series runs, which is what makes
// million-series deployments and runtime re-tuning (answering a new k
// mid-stream without replaying history) feasible.
//
// Estimates carry the sketch's rank-error contract: a returned threshold is
// the exact threshold of a selectivity within ±100·RankError() percentage
// points of the requested k, RankError() ≤ stats.SketchRankErrorBound, and
// it is the exact threshold while the sketch still holds every observation.
type StreamingThresholds struct {
	ks []float64
	sk stats.Sketch
}

// NewStreamingThresholds builds a streaming threshold tracker for the given
// selectivity grid (percent, each in (0, 100)). The grid is what Thresholds
// answers; Threshold may be asked for any k in (0, 100), at the same
// accuracy.
func NewStreamingThresholds(ks []float64) (*StreamingThresholds, error) {
	if len(ks) == 0 {
		return nil, fmt.Errorf("task: no selectivities")
	}
	// One array holds the grid both ways: the selectivities as given, and
	// the sketch's target quantiles behind them.
	grid := make([]float64, 2*len(ks))
	targets := grid[len(ks):]
	for i, k := range ks {
		if !(k > 0 && k < 100) {
			return nil, fmt.Errorf("task: selectivity %v outside (0, 100)", k)
		}
		grid[i] = k
		targets[i] = (100 - k) / 100
	}
	sk, err := stats.MakeSketch(targets)
	if err != nil {
		return nil, fmt.Errorf("task: %v", err)
	}
	return &StreamingThresholds{ks: grid[:len(ks):len(ks)], sk: sk}, nil
}

// Observe feeds one value of the monitored series into the sketch. It
// reports whether the value was accepted; NaN and ±Inf are rejected without
// perturbing the estimates. Observe does not allocate.
func (s *StreamingThresholds) Observe(x float64) bool { return s.sk.Observe(x) }

// Threshold returns the monitoring threshold for selectivity k — the
// streaming estimate of the (100−k)-th percentile of everything observed so
// far. k need not be a grid point. It returns an error for k outside
// (0, 100) or before any value has been observed.
func (s *StreamingThresholds) Threshold(k float64) (float64, error) {
	if !(k > 0 && k < 100) {
		return 0, fmt.Errorf("task: selectivity %v outside (0, 100)", k)
	}
	if s.sk.N() == 0 {
		return 0, fmt.Errorf("task: no values to derive threshold from")
	}
	return s.sk.Quantile((100 - k) / 100), nil
}

// Thresholds returns the threshold for every grid selectivity, in the order
// the grid was given to NewStreamingThresholds — the streaming counterpart
// of the package-level Thresholds. It returns an error before any value has
// been observed.
func (s *StreamingThresholds) Thresholds() ([]float64, error) {
	return s.AppendThresholds(nil)
}

// AppendThresholds appends the grid thresholds to dst and returns the
// extended slice, so a caller sweeping many series can reuse one buffer.
func (s *StreamingThresholds) AppendThresholds(dst []float64) ([]float64, error) {
	if s.sk.N() == 0 {
		return nil, fmt.Errorf("task: no values to derive thresholds from")
	}
	for _, k := range s.ks {
		dst = append(dst, s.sk.Quantile((100-k)/100))
	}
	return dst, nil
}

// Ks returns a copy of the selectivity grid.
func (s *StreamingThresholds) Ks() []float64 { return append([]float64(nil), s.ks...) }

// N reports how many values have been accepted.
func (s *StreamingThresholds) N() int { return s.sk.N() }

// Rejected reports how many non-finite values were dropped.
func (s *StreamingThresholds) Rejected() uint64 { return s.sk.Rejected() }

// RankError reports the rank error the sketch currently guarantees for any
// threshold it answers, as a fraction of N (stats.Sketch.RankError).
func (s *StreamingThresholds) RankError() float64 { return s.sk.RankError() }

// ResidentBytes reports the tracker's memory footprint: the one object that
// holds the sketch, and the grid array. It is constant from construction on.
func (s *StreamingThresholds) ResidentBytes() int {
	return int(unsafe.Sizeof(*s)) + 2*8*cap(s.ks)
}
