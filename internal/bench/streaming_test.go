package bench

import (
	"math"
	"testing"

	"volley/internal/stats"
)

// TestStreamingMemoryProfileConstant is the O(1) claim in miniature: the
// streaming backend's per-series footprint is the same as the trace gets
// 10×, then 100× longer, while the exact backend's grows linearly.
func TestStreamingMemoryProfileConstant(t *testing.T) {
	pts, err := StreamingMemoryProfile(4, []int{1000, 10000, 100000}, Quick().Ks)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	if pts[2].StreamingBytesPerSeries != pts[0].StreamingBytesPerSeries || pts[1].StreamingBytesPerSeries != pts[0].StreamingBytesPerSeries {
		t.Errorf("streaming bytes/series moves with the trace: %d at %d steps, %d at %d steps, %d at %d steps",
			pts[0].StreamingBytesPerSeries, pts[0].Steps, pts[1].StreamingBytesPerSeries, pts[1].Steps, pts[2].StreamingBytesPerSeries, pts[2].Steps)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].ExactBytesPerSeries < 9*pts[i-1].ExactBytesPerSeries {
			t.Errorf("exact bytes/series should grow ~10x with the trace: %d -> %d",
				pts[i-1].ExactBytesPerSeries, pts[i].ExactBytesPerSeries)
		}
	}
	if pts[2].StreamingBytesPerSeries >= pts[2].ExactBytesPerSeries/100 {
		t.Errorf("streaming (%d B) should be orders of magnitude under exact (%d B) at 100k steps",
			pts[2].StreamingBytesPerSeries, pts[2].ExactBytesPerSeries)
	}
}

// TestStreamingSoakSmall exercises the soak harness at a toy scale and
// checks its accounting.
func TestStreamingSoakSmall(t *testing.T) {
	r, err := StreamingSoak(10, 50, 15000, Quick().Ks)
	if err != nil {
		t.Fatal(err)
	}
	if r.Series != 10 || r.StepsPerSeries != 50 {
		t.Errorf("size accounting wrong: %+v", r)
	}
	if r.ResidentBytes <= 0 || r.BytesPerSeries <= 0 {
		t.Errorf("resident accounting wrong: %+v", r)
	}
	if want := int64(10) * 15000 * 8; r.HypotheticalExactBytes != want {
		t.Errorf("hypothetical exact bytes = %d, want %d", r.HypotheticalExactBytes, want)
	}
	if float64(r.ResidentBytes) >= float64(r.HypotheticalExactBytes) {
		t.Errorf("soak footprint %d B should undercut hypothetical exact %d B",
			r.ResidentBytes, r.HypotheticalExactBytes)
	}
}

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
