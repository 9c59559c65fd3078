package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestQuantileKnownValues(t *testing.T) {
	values := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		name string
		q    float64
		want float64
	}{
		{name: "min", q: 0, want: 1},
		{name: "q1", q: 0.25, want: 2},
		{name: "median", q: 0.5, want: 3},
		{name: "q3", q: 0.75, want: 4},
		{name: "max", q: 1, want: 5},
		{name: "interpolated", q: 0.1, want: 1.4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Quantile(values, tt.q); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
			}
		})
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if got := Quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("Quantile(nil) = %v, want NaN", got)
	}
	if got := Quantile([]float64{1, 2}, -0.1); !math.IsNaN(got) {
		t.Errorf("Quantile(q<0) = %v, want NaN", got)
	}
	if got := Quantile([]float64{1, 2}, 1.1); !math.IsNaN(got) {
		t.Errorf("Quantile(q>1) = %v, want NaN", got)
	}
	if got := Quantile([]float64{7}, 0.3); got != 7 {
		t.Errorf("Quantile(single) = %v, want 7", got)
	}
	if got := Quantile([]float64{1, 2}, math.NaN()); !math.IsNaN(got) {
		t.Errorf("Quantile(q=NaN) = %v, want NaN", got)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	values := []float64{3, 1, 2}
	Quantile(values, 0.5)
	if values[0] != 3 || values[1] != 1 || values[2] != 2 {
		t.Errorf("input mutated: %v", values)
	}
}

func TestQuantileUnsortedInput(t *testing.T) {
	if got := Quantile([]float64{9, 1, 5, 3, 7}, 0.5); got != 5 {
		t.Errorf("median of unsorted = %v, want 5", got)
	}
}

func TestQuantileBoundsProperty(t *testing.T) {
	f := func(raw []float64, qRaw float64) bool {
		values := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				values = append(values, v)
			}
		}
		if len(values) == 0 {
			return true
		}
		q := math.Abs(math.Mod(qRaw, 1))
		got := Quantile(values, q)
		lo, hi := values[0], values[0]
		for _, v := range values {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuantileMonotoneInQ(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	values := make([]float64, 200)
	for i := range values {
		values[i] = rng.NormFloat64() * 10
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0001; q += 0.05 {
		qq := math.Min(q, 1)
		got := Quantile(values, qq)
		if got < prev-1e-12 {
			t.Fatalf("quantile decreased at q=%v: %v < %v", qq, got, prev)
		}
		prev = got
	}
}

func TestQuantileSorted(t *testing.T) {
	sorted := []float64{1, 2, 3, 4}
	if got := QuantileSorted(sorted, 0.5); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("QuantileSorted = %v, want 2.5", got)
	}
	if got := QuantileSorted(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("QuantileSorted(nil) = %v, want NaN", got)
	}
}

// sortThenInterpolate is Quantile as it was before it selected: sort a copy,
// interpolate. Whatever it answers is the answer.
func sortThenInterpolate(values []float64, q float64) float64 {
	if len(values) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func checkQuantileMatchesSort(t *testing.T, values []float64, q float64) {
	t.Helper()
	before := append([]float64(nil), values...)
	got, want := Quantile(values, q), sortThenInterpolate(values, q)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Quantile(%v, %v) = %v (%#x), sorting gives %v (%#x)",
			values, q, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	for i := range values {
		if math.Float64bits(values[i]) != math.Float64bits(before[i]) {
			t.Fatalf("Quantile changed its input at %d", i)
		}
	}
}

// TestQuantileSelectMatchesSort: selection answers bit for bit what sorting
// answered, on the shapes that defeat a careless quickselect (runs, ties,
// sawteeth, organ pipes) and on the values whose order a sort does not
// define (zeros of both signs, NaNs, infinities).
func TestQuantileSelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	qs := []float64{0, 1e-9, 0.01, 0.25, 0.5, 0.75, 0.96, 0.975, 0.985, 0.995, 1 - 1e-9, 1}
	negZero := math.Copysign(0, -1)
	shapes := map[string]func(n, i int) float64{
		"random":    func(n, i int) float64 { return rng.NormFloat64() },
		"ascending": func(n, i int) float64 { return float64(i) },
		"falling":   func(n, i int) float64 { return float64(n - i) },
		"constant":  func(n, i int) float64 { return 4 },
		"few-ties":  func(n, i int) float64 { return float64(rng.Intn(3)) },
		"sawtooth":  func(n, i int) float64 { return float64(i % 7) },
		"organpipe": func(n, i int) float64 { return float64(min(i, n-i)) },
		"zeros":     func(n, i int) float64 { return []float64{0, negZero, 1, -1}[rng.Intn(4)] },
		"clamped":   func(n, i int) float64 { return max(0, rng.NormFloat64()) },
		"specials": func(n, i int) float64 {
			return []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, negZero, 1, math.Float64frombits(0x7ff8000000000001)}[rng.Intn(7)]
		},
		"infinite": func(n, i int) float64 { return []float64{math.Inf(1), math.Inf(-1), 3}[rng.Intn(3)] },
	}
	for _, shape := range shapes {
		for _, n := range []int{1, 2, 3, 4, 11, 12, 13, 64, 257, 512, 2048} {
			values := make([]float64, n)
			for i := range values {
				values[i] = shape(n, i)
			}
			for _, q := range qs {
				checkQuantileMatchesSort(t, values, q)
			}
			for try := 0; try < 8; try++ {
				checkQuantileMatchesSort(t, values, rng.Float64())
			}
		}
	}
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if got := Quantile([]float64{1, 2}, q); !math.IsNaN(got) {
			t.Errorf("Quantile at q=%v = %v, want NaN", q, got)
		}
	}
}

// FuzzQuantileSelectMatchesSort is the same differential over arbitrary
// bit patterns and any q.
func FuzzQuantileSelectMatchesSort(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	negZero := math.Copysign(0, -1)
	f.Add(0.5, seed(3))
	f.Add(0.5, seed(2, 1))
	f.Add(0.25, seed(3, 1, 2))
	f.Add(0.96, seed(1, 1, 1, 2, 2, 2, 2, 1, 1, 1, 1, 2, 2, 1, 2, 1))
	f.Add(0.5, seed(0, negZero, 0, negZero, negZero, 0))
	f.Add(0.3, seed(negZero, 0, 1, -1, 0, negZero, negZero))
	f.Add(0.9, seed(math.Inf(1), math.Inf(-1), math.Inf(1), 0, 5))
	f.Add(0.1, seed(math.NaN(), 1, math.Float64frombits(0xfff8000000000002), 2, math.NaN()))
	f.Add(1.0, seed(9, 8, 7, 6, 5, 4, 3, 2, 1, 0, -1, -2, -3, -4, -5, -6, -7, -8, -9))
	f.Add(math.NaN(), seed(1, 2, 3))
	f.Fuzz(func(t *testing.T, q float64, data []byte) {
		values := make([]float64, 0, len(data)/8)
		for off := 0; off+8 <= len(data) && off < 8*4096; off += 8 {
			values = append(values, math.Float64frombits(binary.LittleEndian.Uint64(data[off:])))
		}
		checkQuantileMatchesSort(t, values, q)
		// The same values at a q that lands between two of them.
		checkQuantileMatchesSort(t, values, math.Abs(math.Mod(q, 1)))
	})
}
