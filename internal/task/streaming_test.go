package task

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"volley/internal/stats"
)

func TestNewStreamingThresholdsValidation(t *testing.T) {
	for _, ks := range [][]float64{nil, {}, {0}, {100}, {-1}, {50, math.NaN()}, {6.4, 101}} {
		if _, err := NewStreamingThresholds(ks); err == nil {
			t.Errorf("NewStreamingThresholds(%v) should fail", ks)
		}
	}
	if _, err := NewStreamingThresholds([]float64{6.4, 0.8, 0.1}); err != nil {
		t.Fatalf("valid grid rejected: %v", err)
	}
}

func TestStreamingThresholdsEmpty(t *testing.T) {
	st, err := NewStreamingThresholds([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Threshold(1); err == nil {
		t.Error("Threshold on empty tracker should fail")
	}
	if _, err := st.Thresholds(); err == nil {
		t.Error("Thresholds on empty tracker should fail")
	}
}

// While the sketch still holds every observation it answers exactly — so
// for short series the streaming path must agree with
// ThresholdForSelectivity bit-for-bit.
func TestStreamingThresholdsExactWhileSmall(t *testing.T) {
	ks := []float64{6.4, 0.8}
	st, err := NewStreamingThresholds(ks)
	if err != nil {
		t.Fatal(err)
	}
	values := []float64{9, 1, 5, 3, 7}
	for _, v := range values {
		st.Observe(v)
	}
	for _, k := range []float64{6.4, 0.8, 3.0, 50} {
		want, err := ThresholdForSelectivity(values, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Threshold(k)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Threshold(%v) = %v, want exact %v while small", k, got, want)
		}
	}
}

// On a long stream the grid thresholds must match the exact sorted-copy
// Thresholds within the sketch's rank-error contract, measured in rank
// space (the value-space gap depends on the distribution's density).
func TestStreamingThresholdsMatchesExactWithinBound(t *testing.T) {
	ks := []float64{6.4, 3.2, 1.6, 0.8, 0.4, 0.2, 0.1}
	st, err := NewStreamingThresholds(ks)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	const n = 50000
	values := make([]float64, n)
	for i := range values {
		// Mild diurnal drift plus noise: the bench workloads' shape.
		values[i] = 10 + 3*math.Sin(float64(i)/500) + rng.NormFloat64()
		st.Observe(values[i])
	}
	sort.Float64s(values)
	got, err := st.Thresholds()
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Thresholds(values, ks)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range ks {
		q := (100 - k) / 100
		// Rank of the estimate in the true sample vs the requested rank.
		lo := sort.SearchFloat64s(values, got[i])
		hi := sort.Search(n, func(j int) bool { return values[j] > got[i] })
		rank := (float64(lo) + float64(hi)) / 2 / float64(n-1)
		if re := math.Abs(rank - q); re > stats.SketchRankErrorBound {
			t.Errorf("k=%v: threshold %v (exact %v) off by %.4f in rank, bound %v",
				k, got[i], exact[i], re, stats.SketchRankErrorBound)
		}
	}
}

func TestStreamingThresholdsRejectsNonFinite(t *testing.T) {
	st, err := NewStreamingThresholds([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	st.Observe(5)
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if st.Observe(x) {
			t.Errorf("Observe(%v) should be rejected", x)
		}
	}
	if st.N() != 1 || st.Rejected() != 3 {
		t.Errorf("N/Rejected = %d/%d, want 1/3", st.N(), st.Rejected())
	}
}

func TestStreamingThresholdsResidentBytesConstant(t *testing.T) {
	st, err := NewStreamingThresholds([]float64{6.4, 0.8, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		st.Observe(rng.Float64())
	}
	at1k := st.ResidentBytes()
	for i := 0; i < 9000; i++ {
		st.Observe(rng.Float64())
	}
	if at10k := st.ResidentBytes(); at10k != at1k {
		t.Errorf("ResidentBytes grew with the stream: %d at 1k, %d at 10k", at1k, at10k)
	}
}

// ResidentBytes is what the heap holds: two objects per tracker — the one
// with the sketch in it and the grid array — each filling its allocation
// size class, so ten thousand trackers move HeapAlloc by ten thousand times
// the figure (the slice that keeps them reachable is allocated first).
func TestStreamingThresholdsResidentBytesIsTheHeap(t *testing.T) {
	ks := []float64{25, 10, 5, 2, 1, 0.5, 0.2, 0.1}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := NewStreamingThresholds(ks); err != nil {
			t.Fatal(err)
		}
	}); got != 2 {
		t.Errorf("NewStreamingThresholds allocates %v objects, want 2", got)
	}
	const n = 10000
	trackers := make([]*StreamingThresholds, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range trackers {
		trackers[i], _ = NewStreamingThresholds(ks)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	claimed := n * trackers[0].ResidentBytes()
	held := int(after.HeapAlloc) - int(before.HeapAlloc)
	if diff := held - claimed; diff < -claimed/100 || diff > claimed/100 {
		t.Errorf("%d trackers hold %d heap bytes, ResidentBytes claims %d (%d each)", n, held, claimed, claimed/n)
	}
	if got := trackers[0].ResidentBytes(); got > 2304 {
		t.Errorf("ResidentBytes() = %d, want at most 2304", got)
	}
	runtime.KeepAlive(trackers)
}

// TestStreamingThresholdsObserveZeroAlloc: neither one observation nor a
// refresh — a window of observations, then the grid read back into a reused
// buffer, what a long-running monitor pays periodically — allocates.
func TestStreamingThresholdsObserveZeroAlloc(t *testing.T) {
	st, err := NewStreamingThresholds([]float64{6.4, 0.8, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	i := 0
	next := func() float64 {
		v := xs[i%len(xs)]
		i++
		return v
	}
	for range 5000 {
		st.Observe(next())
	}
	out, err := st.AppendThresholds(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"Observe", func() { st.Observe(next()) }},
		{"a window of Observe, then AppendThresholds", func() {
			for range 64 {
				st.Observe(next())
			}
			if out, err = st.AppendThresholds(out[:0]); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if avg := testing.AllocsPerRun(1000, c.run); avg != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", c.name, avg)
		}
	}
}

func TestStreamingThresholdsGridAccessors(t *testing.T) {
	ks := []float64{6.4, 0.8, 0.1}
	st, err := NewStreamingThresholds(ks)
	if err != nil {
		t.Fatal(err)
	}
	got := st.Ks()
	if len(got) != len(ks) {
		t.Fatalf("Ks() = %v", got)
	}
	for i := range ks {
		if got[i] != ks[i] {
			t.Fatalf("Ks() = %v, want %v (original order preserved)", got, ks)
		}
	}
	got[0] = -1 // must be a copy
	if st.Ks()[0] != 6.4 {
		t.Error("Ks() returned internal slice")
	}
	if st.N() != 0 || st.RankError() != 0 {
		t.Errorf("fresh tracker N/RankError = %d/%v", st.N(), st.RankError())
	}
}
