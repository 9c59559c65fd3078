package stats_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"volley/internal/stats"
	"volley/internal/workload"
)

var sketchTestGrid = []float64{0.5, 0.9, 0.95, 0.99}

// sketchStream is one stream shape of the accuracy contract; gen(n)(i) is
// observation i of a stream that is n long.
type sketchStream struct {
	name string
	gen  func(n int) func(i int) float64
	long bool // also checked at 3·10⁶ observations
}

func sketchStreams(t *testing.T) []sketchStream {
	synthetic := func(f func(i, n int, r *rand.Rand) float64) func(int) func(int) float64 {
		return func(n int) func(int) float64 {
			r := rand.New(rand.NewSource(7))
			return func(i int) float64 { return f(i, n, r) }
		}
	}
	family := func(f workload.Family) func(int) func(int) float64 {
		return func(int) func(int) float64 {
			s, err := f.GenSeries(0)
			if err != nil {
				t.Fatal(err)
			}
			return func(i int) float64 { return s.Values[i] }
		}
	}
	return []sketchStream{
		{"uniform", synthetic(func(_, _ int, r *rand.Rand) float64 { return r.Float64() }), true},
		{"gaussian", synthetic(func(_, _ int, r *rand.Rand) float64 { return 50 + 10*r.NormFloat64() }), true},
		// Pareto α=1.5: infinite variance.
		{"heavy-tail-pareto", synthetic(func(_, _ int, r *rand.Rand) float64 { return math.Pow(r.Float64(), -1/1.5) }), true},
		{"sorted-ascending", synthetic(func(i, _ int, _ *rand.Rand) float64 { return float64(i) }), true},
		{"sorted-descending", synthetic(func(i, n int, _ *rand.Rand) float64 { return float64(n - i) }), true},
		{"drifting-ramp", synthetic(func(i, _ int, r *rand.Rand) float64 { return float64(i)/10 + r.Float64() }), true},
		{"stationary-prefix-then-ramp", synthetic(func(i, n int, r *rand.Rand) float64 {
			if i < n/2 {
				return 100 * r.Float64()
			}
			return 100 + float64(i-n/2)
		}), true},
		{"constant", synthetic(func(_, _ int, _ *rand.Rand) float64 { return 42 }), true},
		{"five-valued", synthetic(func(_, _ int, r *rand.Rand) float64 { return float64(r.Intn(5) * r.Intn(2)) }), true},
		// A slow diurnal swing under unit noise: a day of a utilisation
		// metric, squeezed into the stream.
		{"diurnal-soak", synthetic(func(i, _ int, r *rand.Rand) float64 {
			return 20 + 5*math.Sin(float64(i)/200) + r.NormFloat64()
		}), true},
		// A level that steps up for ever: every new value lands among the
		// newest tuples, where all the folding then has to happen.
		{"rising-staircase", synthetic(func(i, _ int, r *rand.Rand) float64 {
			return float64(i/1000) + 0.3*r.NormFloat64()
		}), true},
		// The end-to-end benchmark's own series, as long as it generates them.
		{"tenant-colo", family(workload.DefaultTenantColo(4, 2, 50000, 11)), false},
		{"entropy-flow", family(workload.DefaultEntropyFlow(1, 50000, 11)), false},
	}
}

// TestSketchErrorBound is the documented accuracy contract: on every
// stream shape, at every grid quantile and at the median, the rank error
// measured against the full sample is within what the sketch tracks, which
// is within SketchRankErrorBound.
func TestSketchErrorBound(t *testing.T) {
	for _, tt := range sketchStreams(t) {
		t.Run(tt.name, func(t *testing.T) {
			lengths := []int{50000}
			if tt.long && !testing.Short() {
				lengths = append(lengths, 3000000)
			}
			for _, n := range lengths {
				s, err := stats.NewSketch(sketchTestGrid)
				if err != nil {
					t.Fatal(err)
				}
				gen := tt.gen(n)
				values := make([]float64, n)
				for i := range values {
					values[i] = gen(i)
					s.Observe(values[i])
				}
				sort.Float64s(values)
				tracked := s.RankError()
				if tracked > stats.SketchRankErrorBound {
					t.Errorf("n=%d: tracked rank error %.4f > %v", n, tracked, stats.SketchRankErrorBound)
				}
				worst := 0.0
				for gi, q := range sketchTestGrid {
					got := s.GridQuantile(gi)
					if got != s.Quantile(q) {
						t.Errorf("n=%d q=%v: GridQuantile %v != Quantile %v", n, q, got, s.Quantile(q))
					}
					re := stats.RankErrorForTest(values, got, q)
					worst = math.Max(worst, re)
					if re > tracked {
						t.Errorf("n=%d q=%v: estimate %v has rank error %.4f > tracked %.4f", n, q, got, re, tracked)
					}
				}
				t.Logf("n=%d: measured %.4f tracked %.4f", n, worst, tracked)
			}
		})
	}
}
