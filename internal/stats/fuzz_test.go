package stats

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// FuzzSketch feeds arbitrary byte streams to the sketch as float64
// observations (plus a fuzzed target grid) and checks the structural
// invariants that must survive any input: no panics, NaN/±Inf rejected
// without perturbing state, N consistent with the accept/reject accounting
// and with the tuples' counts, Min and Max exact, quantile estimates
// monotone in q, confined to [Min, Max] and — while the sketch still holds
// every observation — the exact sample quantiles, interpolation included.
func FuzzSketch(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(1), seed(1, 2, 3, 4, 5, 6, 7, 8))
	f.Add(uint8(3), seed(math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.0))
	f.Add(uint8(7), seed(1, 1, 1, 1, 1, 1, 1, 1, 1, 1))
	f.Add(uint8(9), seed(5, 4, 3, 2, 1, 0, -1, -2, -3, -4, -5, -6, -7, -8))
	f.Add(uint8(2), seed(math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64))
	long := make([]float64, 300) // past the buffer and past the tuples: ties, runs, a ramp
	for i := range long {
		long[i] = float64((i * 7) % 40 / (1 + i/100))
	}
	f.Add(uint8(5), seed(long...))

	f.Fuzz(func(t *testing.T, gridSel uint8, data []byte) {
		// A fuzzed grid: 1–4 targets spread over (0, 1).
		m := int(gridSel%4) + 1
		targets := make([]float64, m)
		for i := range targets {
			targets[i] = (float64(i) + 0.5 + float64(gridSel%8)/16) / (float64(m) + 1)
		}
		s, err := NewSketch(targets)
		if err != nil {
			t.Fatalf("NewSketch(%v): %v", targets, err)
		}

		var sorted []float64
		rejected := 0
		for off := 0; off+8 <= len(data) && off < 8*4096; off += 8 {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[off : off+8]))
			finite := !math.IsNaN(x) && !math.IsInf(x, 0)
			if got := s.Observe(x); got != finite {
				t.Fatalf("Observe(%v) = %v, want %v", x, got, finite)
			}
			if finite {
				sorted = append(sorted, x)
			} else {
				rejected++
			}
		}
		accepted := len(sorted)
		sort.Float64s(sorted)
		if s.N() != accepted {
			t.Fatalf("N() = %d, want %d accepted", s.N(), accepted)
		}
		if s.Rejected() != uint64(rejected) {
			t.Fatalf("Rejected() = %d, want %d", s.Rejected(), rejected)
		}

		if accepted == 0 {
			if !math.IsNaN(s.Quantile(0.5)) {
				t.Fatal("Quantile on empty sketch should be NaN")
			}
			return
		}
		lo, hi := s.Min(), s.Max()
		if lo != sorted[0] || hi != sorted[accepted-1] {
			t.Fatalf("Min/Max = %v/%v after %d observations, want %v/%v", lo, hi, accepted, sorted[0], sorted[accepted-1])
		}
		if sum := tupleCount(s); s.nb != 0 || sum != uint64(accepted) {
			t.Fatalf("after a query %d observations are buffered and the tuples stand for %d, want 0 and %d", s.nb, sum, accepted)
		}
		if re := s.RankError(); re < 0 || re > 1 || (accepted <= sketchRoom && re != 0) {
			t.Fatalf("RankError() = %v after %d observations", re, accepted)
		}
		prev := math.Inf(-1)
		for i := 0; i <= 20; i++ {
			q := float64(i) / 20
			got := s.Quantile(q)
			if math.IsNaN(got) {
				t.Fatalf("Quantile(%v) = NaN on a non-empty sketch", q)
			}
			if want := quantileSorted(sorted, q); accepted <= sketchRoom && got != want {
				t.Fatalf("Quantile(%v) = %v with %d observations held, want exact %v", q, got, accepted, want)
			}
			if got < prev-1e-9 {
				t.Fatalf("quantiles not monotone: Quantile(%v) = %v < %v", q, got, prev)
			}
			if got < lo-1e-9 || got > hi+1e-9 {
				t.Fatalf("Quantile(%v) = %v outside [%v, %v]", q, got, lo, hi)
			}
			prev = got
		}
		for gi := range targets {
			got := s.GridQuantile(gi)
			if math.IsNaN(got) || got < lo-1e-9 || got > hi+1e-9 {
				t.Fatalf("GridQuantile(%d) = %v outside [%v, %v]", gi, got, lo, hi)
			}
		}
		// Out-of-domain queries answer NaN, never panic.
		for _, q := range []float64{-0.1, 1.1, math.NaN()} {
			if !math.IsNaN(s.Quantile(q)) {
				t.Fatalf("Quantile(%v) should be NaN", q)
			}
		}
	})
}
