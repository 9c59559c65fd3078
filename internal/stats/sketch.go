package stats

import (
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// The sketch's sizes and its accuracy contract. The sizes are not
// configurable: every committed error-bound test and the documented
// guarantee (DESIGN.md §15) is calibrated against them, and with the fixed
// fields they make a task.StreamingThresholds 2040 bytes — with the header
// the allocator puts before an object that holds pointers, the 2048-byte
// size class exactly.
const (
	// sketchCap is the length of the tuple array.
	sketchCap = 77
	// sketchBuf is how many observations wait unsorted for one flush.
	sketchBuf = 15
	// sketchRoom is how many tuples the summary keeps between flushes; the
	// rest of the array is room for the buffer's values to become tuples.
	sketchRoom = sketchCap - sketchBuf
	// SketchRankErrorBound is the documented accuracy contract, as rank
	// error: an answer for q is the exact quantile of some rank within
	// q ± SketchRankErrorBound. RankError reports the bound a sketch holds:
	// sound on any stream, and about half of this on the shapes of
	// TestSketchErrorBound.
	SketchRankErrorBound = 0.05
)

// sketchTuple is one Greenwald–Khanna tuple: an observed value, the number
// of observations it stands for (itself and those folded into it, all in
// (previous tuple's value, v]), and the uncertainty of its rank. With
// rmin(i) = g[0]+…+g[i], the value's rank in the stream lies in
// [rmin(i), rmin(i)+d]. The counts are 64-bit: TestSketchCountsDoNotWrap.
type sketchTuple struct {
	v    float64
	g, d uint64
}

// Sketch estimates any quantile of an unbounded stream in fixed memory — one
// object with no pointer in it but the target grid's — and with no allocation
// per Observe. It is a Greenwald–Khanna summary of fixed capacity: instead of
// fixing the error and letting the summary grow, it folds as many of the
// cheapest tuples as it takes to fit, and RankError reports the rank error
// that has cost: the width of the widest tuple. While it still holds every
// observation — sketchRoom of them at least — answers are exact.
//
// Sketch is not safe for concurrent use, and queries flush the buffer, so
// they count as writes. The zero value is not usable: use NewSketch.
type Sketch struct {
	targets  []float64 // sorted, deduplicated target quantiles
	n        int       // accepted observations, buffered ones included
	rejected uint64
	nt, nb   int32              // tuples and buffered observations in use
	buf      [sketchBuf]float64 // next to the counts: all that most calls of Observe touch
	t        [sketchCap]sketchTuple
}

// NewSketch returns a sketch for the given target quantiles, each in (0, 1),
// sorted and deduplicated; at least one is required. Any quantile can be asked
// for at the same accuracy: the targets only name GridQuantile's grid.
func NewSketch(targets []float64) (*Sketch, error) {
	s, err := MakeSketch(slices.Clone(targets))
	if err != nil {
		return nil, err
	}
	return &s, nil
}

// MakeSketch is NewSketch for a caller that embeds the sketch by value. It
// adopts targets, sorting and deduplicating the slice in place.
func MakeSketch(targets []float64) (Sketch, error) {
	if len(targets) == 0 {
		return Sketch{}, fmt.Errorf("stats: sketch needs at least one target quantile")
	}
	for _, q := range targets {
		if !(q > 0 && q < 1) {
			return Sketch{}, fmt.Errorf("stats: sketch quantile %v outside (0, 1)", q)
		}
	}
	slices.Sort(targets)
	return Sketch{targets: slices.Compact(targets)}, nil
}

// Targets reports the sketch's target quantile grid (a copy, ascending).
func (s *Sketch) Targets() []float64 { return slices.Clone(s.targets) }

// N reports the number of accepted observations.
func (s *Sketch) N() int { return s.n }

// Rejected reports how many observations were refused (NaN or ±Inf).
func (s *Sketch) Rejected() uint64 { return s.rejected }

// ResidentBytes reports the sketch's resident memory: the one object and
// the target grid it points to. It is constant from construction on.
func (s *Sketch) ResidentBytes() int {
	return int(unsafe.Sizeof(*s)) + 8*cap(s.targets)
}

// Observe absorbs one observation in amortized constant time and never
// allocates. It reports whether the observation was accepted: NaN and ±Inf
// are rejected, and counted in Rejected.
func (s *Sketch) Observe(x float64) bool {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		s.rejected++
		return false
	}
	if s.nb == sketchBuf {
		s.flush()
	}
	s.buf[s.nb] = x
	s.nb++
	s.n++
	return true
}

// flush sorts the buffered observations and places them among the tuples,
// then, while that leaves more tuples than the next buffer has room beside,
// folds tuples into their successors: every pair within the budget new values
// join under, in one pass, when there is such a pair, and otherwise the one
// pair whose joint width is smallest.
//
// That budget is a function of the observation count alone — half again the
// width sketchRoom equal tuples would have — and has no memory. Beyond it only
// the cheapest pair folds, just as many times as needed, so a stretch of the
// stream that needs a wide tuple somewhere gets it there and nowhere else, and
// what it leaves behind shrinks relative to n as n grows. Nothing a flush
// decides is carried to the next but the tuples themselves (DESIGN.md §15 has
// the measurements against budgets that ratchet, rise for every tuple at once,
// or take every pair near the cheapest).
func (s *Sketch) flush() {
	if s.nb == 0 {
		return
	}
	buf := s.buf[:s.nb]
	for i := 1; i < len(buf); i++ { // insertion sort: the buffer is small and holds no NaN
		x, j := buf[i], i
		for ; j > 0 && buf[j-1] > x; j-- {
			buf[j] = buf[j-1]
		}
		buf[j] = x
	}
	full := 3 * uint64(s.n) / (2 * sketchRoom)
	budget := full
	if s.nt >= sketchRoom {
		// No room for another tuple: a value that became one would have the
		// cheapest pair folded for it, and if that pair is no cheaper than
		// joining the tuple above, it may as well join.
		_, width := s.cheapest(full)
		budget = max(full, width)
	}
	s.place(buf, budget)
	s.nb = 0
	for s.nt > sketchRoom {
		r, width := s.cheapest(full)
		if width <= full {
			s.fold(full) // every pair the budget allows, in one pass
			continue
		}
		s.t[r+1].g += s.t[r].g
		s.nt = int32(r + copy(s.t[r:], s.t[r+1:s.nt]))
	}
}

// place puts the sorted values among the tuples, largest first. A value
// joins the tuple above it when the two stay within the budget. Otherwise it
// becomes a tuple with g = 1 whose rank is uncertain by what the tuple above
// it stands for, d = g'+d'−1: 0 next to an exact neighbour, and 0 for a new
// maximum or minimum — which always become tuples: the minimum never joins
// and the maximum is never joined, so both stay exact. A value that is
// already there is counted, not inserted: its repeats go to a second tuple
// of the same value right after the first, which is therefore all ties — it
// stands for no other value and its width is not uncertainty (RankError) —
// and has the first one's d.
func (s *Sketch) place(buf []float64, budget uint64) {
	t := &s.t
	i := int(s.nt) - 1 // the largest tuple not above the value in hand
	for j := len(buf) - 1; j >= 0; {
		x, run := buf[j], 1
		for j-run >= 0 && buf[j-run] == x {
			run++
		}
		j -= run
		for i >= 0 && t[i].v > x {
			i--
		}
		at, c := i+1, sketchTuple{v: x, g: uint64(run)}
		split := false
		switch {
		case i >= 1 && t[i].v == x && t[i-1].v == x: // its ties tuple is there
			t[i].g += c.g
			continue
		case i >= 0 && t[i].v == x: // becomes the ties tuple of an old value
			c.d = t[i].d
		case at < int(s.nt):
			above := &t[at]
			if i >= 0 && at < int(s.nt)-1 && c.g+above.g+above.d <= budget {
				above.g += c.g
				continue
			}
			c.d = above.g + above.d - 1
			fallthrough
		default:
			// The repeats of a new value with an exact rank get the ties
			// tuple at once, so answers stay exact while nothing has been
			// folded; with an uncertain rank they are simply counted.
			split = run > 1 && c.d == 0
		}
		n := 1
		if split {
			n, c.g = 2, 1
		}
		copy(t[at+n:], t[at:s.nt])
		t[at] = c
		if split {
			t[at+1] = sketchTuple{v: x, g: uint64(run - 1)}
		}
		s.nt += int32(n)
	}
}

// fold is one backward pass over the tuples in which each in turn joins its
// successor — which keeps its value and uncertainty and adds the counts —
// when the pair stays within the budget, g+g'+d' ≤ budget, or is kept below
// it. The minimum never joins and the maximum is never joined.
func (s *Sketch) fold(budget uint64) {
	t, top := &s.t, int(s.nt)-1
	w := top
	for r := top - 1; r >= 0; r-- {
		if r > 0 && w < top && t[r].g+t[w].g+t[w].d <= budget {
			t[w].g += t[r].g
			continue
		}
		w--
		t[w] = t[r]
	}
	s.nt = int32(copy(t[:], t[w:top+1]))
}

// cheapest finds the adjacent pair of tuples whose joint width g+g'+d' is
// smallest among those that may fold — the minimum never joins, the maximum
// is never joined — and reports the lower one's index and the width. A tuple
// whose own count has reached full never joins either: it stays a boundary,
// or a run of exact tuples would fold, cheaply each time, into one that
// follows the moving edge of a drifting stream and hands its whole count to
// every value that lands under it. There is always a pair left: too many
// tuples to fit cannot all be full.
func (s *Sketch) cheapest(full uint64) (at int, width uint64) {
	width = math.MaxUint64
	for r := 1; r < int(s.nt)-2; r++ {
		if c := s.t[r].g + s.t[r+1].g + s.t[r+1].d; c < width && s.t[r].g <= full {
			at, width = r, c
		}
	}
	return at, width
}

// RankError reports the rank error the summary currently guarantees: no
// more than this share of the observations lies strictly between an answer
// of Quantile and the exact answer. It is the widest tuple, max(g+d)/N, less
// the one observation a tuple always stands for — so 0 while the summary
// holds every observation — and 0 for an empty sketch.
func (s *Sketch) RankError() float64 {
	if s.n == 0 {
		return 0
	}
	s.flush()
	var widest uint64
	for i, t := range s.t[:s.nt] {
		if i > 0 && t.v == s.t[i-1].v {
			widest = max(widest, t.d) // all ties
		} else {
			widest = max(widest, t.g+t.d-1)
		}
	}
	return float64(widest) / float64(s.n)
}

// Min reports the exact running minimum (NaN on an empty sketch).
func (s *Sketch) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	s.flush()
	return s.t[0].v
}

// Max reports the exact running maximum (NaN on an empty sketch).
func (s *Sketch) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	s.flush()
	return s.t[s.nt-1].v
}

// Quantile estimates the q-quantile of everything observed so far, for any
// q in [0, 1]: the rank q(N−1) is looked up among the tuples, each placed at
// the middle of its rank interval, and the value interpolated between the two
// around it — which is the exact sample quantile, as the package's Quantile
// computes it on a sorted copy, while no tuple has been folded. It returns
// NaN for an empty sketch or q outside [0, 1].
func (s *Sketch) Quantile(q float64) float64 {
	if s.n == 0 || !(q >= 0 && q <= 1) {
		return math.NaN()
	}
	s.flush()
	pos := q * float64(s.n-1) // 0-based, as quantileSorted has it
	var rmin uint64
	prev := 0.0
	for i, t := range s.t[:s.nt] {
		rmin += t.g
		at := float64(rmin-1) + float64(t.d)/2
		if at < pos {
			prev = at
			continue
		}
		if i == 0 || at == pos {
			return t.v
		}
		return lerpClamped(s.t[i-1].v, t.v, (pos-prev)/(at-prev))
	}
	return s.t[s.nt-1].v
}

// GridQuantile reports the estimate for the i-th target quantile (as
// ordered by Targets), NaN when there is no such target.
func (s *Sketch) GridQuantile(i int) float64 {
	if i < 0 || i >= len(s.targets) {
		return math.NaN()
	}
	return s.Quantile(s.targets[i])
}

// lerpClamped interpolates a…b by frac, clamped to [a, b]. The clamp is
// load-bearing for monotone quantiles: at extreme magnitudes the fused
// a+frac·(b−a) can overshoot b by an ulp, and segment endpoints are shared,
// so one segment's end would exceed the next one's start (FuzzSketch).
func lerpClamped(a, b, frac float64) float64 {
	v := a + frac*(b-a)
	if v < a {
		return a
	}
	if v > b {
		return b
	}
	return v
}
