package bench

import (
	"math"
	"testing"

	"volley/internal/stats"
)

// TestMaintenanceHarnessAgreement checks the two refresh paths answer the
// same grid within the sketch's rank-error contract, on the harness's own
// well-behaved synthetic stream.
func TestMaintenanceHarnessAgreement(t *testing.T) {
	ks := Quick().Ks
	h, err := NewMaintenanceHarness(20000, 64, ks, 3)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := h.ExactRefresh()
	if err != nil {
		t.Fatal(err)
	}
	stream, err := h.StreamingRefresh()
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != len(ks) || len(stream) != len(ks) {
		t.Fatalf("grid sizes: exact %d, stream %d, want %d", len(exact), len(stream), len(ks))
	}
	// The harness's stream is unimodal and stationary, so value-space
	// agreement is tight; a loose relative check catches wiring bugs
	// (wrong k, wrong series) without re-deriving rank errors here —
	// TestStreamingThresholdsWithinBoundOnPresets owns the real contract.
	for i := range ks {
		if relDiff(exact[i], stream[i]) > 0.10 {
			t.Errorf("k=%v: exact %v vs streaming %v", ks[i], exact[i], stream[i])
		}
	}
}

func relDiff(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// TestMaintenanceStreamingRefreshZeroAlloc gates the streaming refresh
// path's allocation profile: absorbing a window and re-deriving the grid
// must not allocate.
func TestMaintenanceStreamingRefreshZeroAlloc(t *testing.T) {
	h, err := NewMaintenanceHarness(5000, 64, Quick().Ks, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.StreamingRefresh(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := h.StreamingRefresh(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("StreamingRefresh allocates %v times per call, want 0", allocs)
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
