package stats

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Quantile computes the q-quantile (0 ≤ q ≤ 1) of values using linear
// interpolation between order statistics (the "type 7" estimator used by
// most statistics packages). It works on a copy, leaving values unmodified,
// and selects the two order statistics it interpolates between instead of
// sorting for them: O(n), and the answer is bit for bit what sorting gave.
// It returns NaN for an empty slice or q outside [0, 1].
func Quantile(values []float64, q float64) float64 {
	v, _ := QuantileBuf(values, q, nil)
	return v
}

// QuantileBuf is Quantile working in the caller's buffer instead of a copy
// of its own: buf is grown to len(values) where it is shorter, and returned
// for the next call. A caller answering one quantile per series, series
// after series, allocates the copy once.
func QuantileBuf(values []float64, q float64, buf []float64) (float64, []float64) {
	if len(values) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN(), buf
	}
	work := slices.Grow(buf[:0], len(values))[:len(values)]
	nan := false
	for i, v := range values {
		work[i] = v
		nan = nan || v != v
	}
	// quantileSorted reads work[lo] and work[hi] alone, so those two are all
	// that has to be where sorting would put them.
	pos := q * float64(len(work)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	if !nan {
		selectNth(work, lo)
		if hi != lo {
			least := hi
			for i := hi + 1; i < len(work); i++ {
				if work[i] < work[least] {
					least = i
				}
			}
			work[hi], work[least] = work[least], work[hi]
		}
	}
	// Where values compare equal yet differ in their bits, which of them a
	// sort leaves at a position is the sort's own business: NaNs (which
	// selectNth does not order at all), and zeros of either sign. An answer
	// that could rest on one of those is taken from the sort itself, of the
	// values in the order they came in.
	if nan || work[lo] == 0 || work[hi] == 0 {
		copy(work, values)
		sort.Float64s(work)
	}
	return quantileSorted(work, q), work
}

// selectNth rearranges a, which holds no NaN, so that a[k] is the value a
// sort would leave there, with nothing greater before it and nothing smaller
// after it.
func selectNth(a []float64, k int) {
	lo, hi := 0, len(a)-1
	for budget := 2 * bits.Len(uint(len(a))); lo < hi; budget-- {
		if hi-lo < 12 || budget == 0 {
			// Few enough to sort; or an input on which the pivots keep
			// falling at the edge, which sorting bounds at O(n log n).
			sort.Float64s(a[lo : hi+1])
			return
		}
		// Hoare's partition around the median of first, middle and last.
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
			if a[mid] < a[lo] {
				a[mid], a[lo] = a[lo], a[mid]
			}
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for pivot < a[j] {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// a[lo:j+1] ≤ pivot ≤ a[i:hi+1], and anything between is the pivot's equal.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// QuantileSorted is like Quantile but requires values to already be sorted
// ascending, avoiding the copy and sort.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return lerpClamped(sorted[lo], sorted[hi], frac)
}
