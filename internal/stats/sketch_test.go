package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// rankError is the measure of the documented SketchRankErrorBound —
// value-space error is meaningless across heavy-tail scales: the share of the
// sample lying strictly between an estimate for q and the exact answer, 0
// when they are the same value whatever ties surround it.
func rankError(sorted []float64, estimate, q float64) float64 {
	exact := quantileSorted(sorted, q)
	lo, hi := math.Min(estimate, exact), math.Max(estimate, exact)
	above := sort.Search(len(sorted), func(i int) bool { return sorted[i] > lo })
	below := sort.SearchFloat64s(sorted, hi)
	return float64(max(below-above, 0)) / float64(len(sorted))
}

var sketchTestGrid = []float64{0.5, 0.9, 0.95, 0.99}

func TestNewSketchValidation(t *testing.T) {
	for _, qs := range [][]float64{nil, {}, {0}, {1}, {-0.5}, {1.5}, {math.NaN()}, {0.5, 1}} {
		if _, err := NewSketch(qs); err == nil {
			t.Errorf("NewSketch(%v) succeeded, want error", qs)
		}
	}
	s, err := NewSketch([]float64{0.9, 0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Targets(); len(got) != 2 || got[0] != 0.5 || got[1] != 0.9 {
		t.Errorf("Targets() = %v, want deduplicated ascending [0.5 0.9]", got)
	}
}

func TestSketchEmpty(t *testing.T) {
	s, err := NewSketch([]float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("Quantile on empty sketch = %v, want NaN", got)
	}
	if got := s.GridQuantile(0); !math.IsNaN(got) {
		t.Errorf("GridQuantile on empty sketch = %v, want NaN", got)
	}
	if !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Error("Min/Max on empty sketch should be NaN")
	}
}

func TestSketchFewObservationsExact(t *testing.T) {
	s, err := NewSketch([]float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{3, 1, 2} {
		if !s.Observe(v) {
			t.Fatalf("Observe(%v) rejected", v)
		}
	}
	if got := s.Quantile(0.5); got != 2 {
		t.Errorf("median with 3 observations = %v, want exact 2", got)
	}
	if got := s.GridQuantile(0); got != 2 {
		t.Errorf("GridQuantile with 3 observations = %v, want exact 2", got)
	}
	if s.N() != 3 {
		t.Errorf("N() = %d, want 3", s.N())
	}
	if s.Min() != 1 || s.Max() != 3 {
		t.Errorf("Min/Max = %v/%v, want 1/3", s.Min(), s.Max())
	}
}

func TestSketchRejectsNonFinite(t *testing.T) {
	s, err := NewSketch([]float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if s.Observe(v) {
			t.Errorf("Observe(%v) accepted, want rejected", v)
		}
	}
	if s.N() != 0 {
		t.Errorf("N() after rejected observations = %d, want 0", s.N())
	}
	if s.Rejected() != 3 {
		t.Errorf("Rejected() = %d, want 3", s.Rejected())
	}
	s.Observe(1)
	if s.N() != 1 || s.Rejected() != 3 {
		t.Errorf("N/Rejected after one real observation = %d/%d, want 1/3", s.N(), s.Rejected())
	}
}

// TestSketchSingleQuantile is the single-target form: the streaming
// replacement for a one-off percentile estimate.
func TestSketchSingleQuantile(t *testing.T) {
	tests := []struct {
		name string
		q    float64
		draw func(*rand.Rand) float64
	}{
		{name: "uniform median", q: 0.5, draw: func(r *rand.Rand) float64 { return r.Float64() }},
		{name: "uniform p90", q: 0.9, draw: func(r *rand.Rand) float64 { return r.Float64() }},
		{name: "normal p95", q: 0.95, draw: func(r *rand.Rand) float64 { return r.NormFloat64() }},
		{name: "exp p99", q: 0.99, draw: func(r *rand.Rand) float64 { return r.ExpFloat64() }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			s, err := NewSketch([]float64{tt.q})
			if err != nil {
				t.Fatal(err)
			}
			const n = 50000
			values := make([]float64, n)
			for i := range values {
				values[i] = tt.draw(rng)
				s.Observe(values[i])
			}
			sorted := append([]float64(nil), values...)
			sort.Float64s(sorted)
			if re := rankError(sorted, s.GridQuantile(0), tt.q); re > SketchRankErrorBound {
				t.Errorf("estimate %v has rank error %.4f > %v", s.GridQuantile(0), re, SketchRankErrorBound)
			}
		})
	}
}

func TestSketchQuantileMonotoneInQ(t *testing.T) {
	streams := map[string]func(i int, r *rand.Rand) float64{
		"stationary": func(_ int, r *rand.Rand) float64 { return r.NormFloat64() * 10 },
		"sorted":     func(i int, _ *rand.Rand) float64 { return float64(i) },
	}
	for name, gen := range streams {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			s, err := NewSketch(sketchTestGrid)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20000; i++ {
				s.Observe(gen(i, rng))
			}
			prev := math.Inf(-1)
			for q := 0.0; q <= 1.0001; q += 0.01 {
				qq := math.Min(q, 1)
				got := s.Quantile(qq)
				if got < prev-1e-9 {
					t.Fatalf("quantile decreased at q=%v: %v < %v", qq, got, prev)
				}
				if got < s.Min()-1e-9 || got > s.Max()+1e-9 {
					t.Fatalf("Quantile(%v) = %v outside [min=%v, max=%v]", qq, got, s.Min(), s.Max())
				}
				prev = got
			}
		})
	}
}

func TestSketchResidentBytesBounded(t *testing.T) {
	s, err := NewSketch([]float64{0.936, 0.968, 0.984, 0.992, 0.996, 0.998, 0.999})
	if err != nil {
		t.Fatal(err)
	}
	before := s.ResidentBytes()
	if before > 2048+7*8 {
		t.Errorf("sketch resident bytes = %d, want one object of at most 2048 bytes and its grid", before)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		s.Observe(rng.NormFloat64())
	}
	for i := 0; i < 100000; i++ {
		s.Observe(float64(i))
	}
	if got := s.ResidentBytes(); got != before {
		t.Errorf("resident bytes moved with the trace: %d -> %d", before, got)
	}
}

// TestSketchObserveZeroAlloc gates the repo convention: the per-sample hot
// path allocates nothing — across the buffer flushes and the folds for room,
// of which 2000 observations see over a hundred — on both observeStreams.
func TestSketchObserveZeroAlloc(t *testing.T) {
	for name, gen := range observeStreams(2) {
		t.Run(name, func(t *testing.T) {
			s, err := NewSketch(sketchTestGrid)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for ; n < 4096; n++ {
				s.Observe(gen(n))
			}
			allocs := testing.AllocsPerRun(2000, func() {
				s.Observe(gen(n))
				n++
			})
			if allocs != 0 {
				t.Errorf("Sketch.Observe allocates %.1f times per call, want 0", allocs)
			}
		})
	}
}

// observeStreams are the two shapes Observe's cost is watched on: one that
// inserts everywhere and one that only ever inserts at the top.
func observeStreams(seed int64) map[string]func(i int) float64 {
	rng := rand.New(rand.NewSource(seed))
	return map[string]func(i int) float64{
		"stationary": func(int) float64 { return 50 + 10*rng.NormFloat64() },
		"sorted":     func(i int) float64 { return float64(i) },
	}
}

// tupleCount is how many observations the tuples stand for: N, once a query
// has flushed the buffer.
func tupleCount(s *Sketch) (sum uint64) {
	for _, tu := range s.t[:s.nt] {
		sum += tu.g
	}
	return sum
}

func BenchmarkSketchObserve(b *testing.B) {
	for name, gen := range observeStreams(1) {
		b.Run(name, func(b *testing.B) {
			s, err := NewSketch([]float64{0.936, 0.968, 0.984, 0.992, 0.996, 0.998, 0.999})
			if err != nil {
				b.Fatal(err)
			}
			values := make([]float64, 8192)
			for i := range values {
				values[i] = gen(i)
				s.Observe(values[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Observe(values[i%len(values)])
			}
		})
	}
}

// TestSketchSoundOnTies drives the tie handling — a value that is already
// there is counted in a tuple of its own kind — with streams over small
// alphabets, where most observations are repeats, and checks at every stop
// what FuzzSketch checks on short inputs: the counts add up to N, Min and Max
// are exact, and no grid answer is further from the exact one than RankError
// says, in observations strictly between the two.
func TestSketchSoundOnTies(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		alphabet := 1 + rng.Intn(200)
		atom := rng.Float64() * float64(rng.Intn(2)) // a share of the stream sits on one value
		s, err := NewSketch(sketchTestGrid)
		if err != nil {
			t.Fatal(err)
		}
		var values []float64
		for n := 1 + rng.Intn(4000); len(values) < n; {
			x := float64(rng.Intn(alphabet)) + float64(len(values)/1000) // the alphabet drifts
			if rng.Float64() < atom {
				x = 7
			}
			values = append(values, x)
			s.Observe(x)
			if len(values)%997 != 0 && len(values) != n {
				continue
			}
			sorted := append([]float64(nil), values...)
			sort.Float64s(sorted)
			if s.Min() != sorted[0] || s.Max() != sorted[len(sorted)-1] {
				t.Fatalf("trial %d n=%d: Min/Max = %v/%v, want %v/%v", trial, len(values), s.Min(), s.Max(), sorted[0], sorted[len(sorted)-1])
			}
			if sum := tupleCount(s); sum != uint64(len(values)) {
				t.Fatalf("trial %d: tuples stand for %d observations, want %d", trial, sum, len(values))
			}
			tracked := s.RankError()
			for q := 0.0; q <= 1; q += 1.0 / 64 {
				if re := rankError(sorted, s.Quantile(q), q); re > tracked {
					t.Fatalf("trial %d n=%d alphabet=%d q=%v: answer %v has rank error %.4f > tracked %.4f",
						trial, len(values), alphabet, q, s.Quantile(q), re, tracked)
				}
			}
		}
	}
}

// TestSketchCountsDoNotWrap states where the integer counts end. A tuple's g
// and d are uint64 and N is an int: the first to run out is N, at 2⁶³ ≈
// 9.2·10¹⁸ observations — 292 years of one observation a nanosecond — so
// nothing is rescaled and nothing can wrap. What 32-bit counts would have
// done at N = 2³², fifty days of a monitor sampled every millisecond, is
// shown instead: a summary whose every tuple already stands for more than
// 2³² observations keeps counting, exactly.
func TestSketchCountsDoNotWrap(t *testing.T) {
	s, err := NewSketch(sketchTestGrid)
	if err != nil {
		t.Fatal(err)
	}
	const each = 1 << 33
	for i := 0; i < sketchRoom; i++ { // as a long stationary stream leaves it
		s.t[i] = sketchTuple{v: float64(i), g: each}
	}
	s.t[0].g, s.t[sketchRoom-1].g = 1, 1
	s.nt = sketchRoom
	s.n = (sketchRoom-2)*each + 2
	rng := rand.New(rand.NewSource(4))
	const more = 100000
	for i := 0; i < more; i++ {
		s.Observe(rng.Float64() * (sketchRoom - 1))
	}
	if got := s.Quantile(0.5); math.Abs(got-float64(sketchRoom-1)/2) > 1 {
		t.Errorf("median = %v, want the middle of 0…%d", got, sketchRoom-1)
	}
	if sum, want := tupleCount(s), uint64((sketchRoom-2)*each+2+more); sum != want || uint64(s.N()) != want {
		t.Errorf("tuples stand for %d observations and N() = %d, want %d", sum, s.N(), want)
	}
	if re := s.RankError(); re <= 0 || re > SketchRankErrorBound {
		t.Errorf("RankError() = %v past 2³³ observations a tuple", re)
	}
}
