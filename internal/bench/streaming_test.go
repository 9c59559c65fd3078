package bench

import (
	"math"
	"math/rand"
	"testing"

	"volley/internal/stats"
	"volley/internal/task"
)

// TestMaintenanceStreamingRefreshZeroAlloc gates the periodic refresh a
// long-running monitor pays on the figure grid: absorbing a window of
// observations into the sketch and reading the grid back into a reused
// buffer must not allocate.
func TestMaintenanceStreamingRefreshZeroAlloc(t *testing.T) {
	const steps, window = 5000, 64
	st, err := task.NewStreamingThresholds(Quick().Ks)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	gen := func(i int) float64 { return 20 + 5*math.Sin(float64(i)/200) + rng.NormFloat64() }
	for i := range steps {
		st.Observe(gen(i))
	}
	win := make([]float64, window)
	for i := range win {
		win[i] = gen(steps + i)
	}
	out, err := st.AppendThresholds(nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, v := range win {
			st.Observe(v)
		}
		if out, err = st.AppendThresholds(out[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a window of Observe, then AppendThresholds, allocates %v times per refresh, want 0", allocs)
	}
}

// TestStreamingErrorCheckReportsBound wires the audit helper end to end on
// a small workload and checks it reports the package bound and a result
// within it (the committed-preset sweep lives in equivalence_test.go).
func TestStreamingErrorCheckReportsBound(t *testing.T) {
	series, err := GenSystem(3, 1, 2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	r, err := StreamingErrorCheck("system", series, Quick().Ks)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bound != stats.SketchRankErrorBound {
		t.Errorf("bound = %v, want %v", r.Bound, stats.SketchRankErrorBound)
	}
	if r.Series != 3 {
		t.Errorf("series = %d, want 3", r.Series)
	}
	if r.MaxRankError > r.Bound {
		t.Errorf("max rank error %.4f exceeds bound %v", r.MaxRankError, r.Bound)
	}
}
