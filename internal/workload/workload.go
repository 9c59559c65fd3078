// Package workload defines seeded, reproducible workload families for the
// evaluation harness: named generators that turn a small config into
// per-monitor value series plus everything a monitoring task needs around
// them — per-series thresholds and error allowances, the coordinator-side
// global signal, and ground-truth violation labels.
//
// A Family generates each monitor's series independently from (config
// seed, series index), which is what lets Generate fan generation across
// workers while keeping the output bit-identical at any worker count (slot
// writes only, no cross-index state). Assemble then derives the
// cross-series artifacts — aggregates, the global signal, ground truth —
// from the finished series in index order.
//
// Two families are provided (DESIGN.md §16):
//
//   - EntropyFlow: per-node source-address histograms with Zipfian
//     background traffic and injected DDoS epochs that collapse the
//     empirical entropy. Each monitor's signal is its local entropy
//     deficit; the global signal is the aggregate deficit; the attack
//     epochs are the ground truth.
//   - TenantColo: thousands of small tenant tasks with instantaneous-CPU
//     series (periodic + bursty mixtures) and heterogeneous (T, err)
//     targets drawn from SLO tiers, plus cheap per-group aggregate series
//     whose violations predict the expensive per-tenant ones
//     (correlation-gated monitoring).
package workload

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"volley/internal/stats"
	"volley/internal/task"
)

// Series is one monitor's generated series plus its task parameters.
type Series struct {
	// ID names the series; unique within the family.
	ID string
	// Group names the aggregation group the series belongs to (tenant
	// family); empty when the family has no grouping.
	Group string
	// Tier names the SLO tier the series' (Threshold, Err) target came
	// from; empty when the family has a single tier.
	Tier string
	// Values is the series at default-interval granularity.
	Values []float64
	// Threshold is the series' local violation threshold.
	Threshold float64
	// Err is the series' error allowance (the misdetection budget its
	// sampler adapts against).
	Err float64
	// Cost is the relative per-sample cost (used by correlation-gated
	// plans to decide what is worth gating).
	Cost float64
}

// Violations reports the series' ground-truth violation mask: Values[i] >
// Threshold.
func (s *Series) Violations() []bool {
	out := make([]bool, len(s.Values))
	for i, v := range s.Values {
		out[i] = v > s.Threshold
	}
	return out
}

// Set is an assembled workload: every per-monitor series plus the
// cross-series artifacts.
type Set struct {
	// Family and Signal describe the workload (Family.Name / Family.Signal).
	Family string
	Signal string
	// Series holds one entry per monitor, in index order.
	Series []Series
	// Aggregates holds derived group-level series (per-group sums for the
	// tenant family); empty when the family has none.
	Aggregates []Series
	// Global is the coordinator-side global signal (the sum of all series),
	// when the family defines a single global task; nil otherwise.
	Global []float64
	// GlobalThreshold and GlobalErr parameterize the global task; the
	// threshold is the sum of the per-series local thresholds.
	GlobalThreshold float64
	GlobalErr       float64
	// Truth labels each window with the injected ground-truth anomaly
	// (attack epochs for EntropyFlow); nil when the family has no injected
	// global events.
	Truth []bool
}

// Family generates a workload. Implementations must be deterministic: the
// same config produces bit-identical output, and GenSeries(i) depends only
// on the config and i (never on other indices or call order), so callers
// may generate series in any order or in parallel.
type Family interface {
	// Name identifies the family ("entropy-flow", "tenant-colo").
	Name() string
	// Signal describes the monitored signal for humans.
	Signal() string
	// Size is the number of per-monitor series.
	Size() int
	// Windows is the length of every series.
	Windows() int
	// GenSeries generates series i ∈ [0, Size).
	GenSeries(i int) (Series, error)
	// Assemble derives the cross-series artifacts from the complete,
	// index-ordered series slice.
	Assemble(series []Series) (*Set, error)
}

// Generate runs a family: GenSeries for every index, fanned over GOMAXPROCS
// workers that each write only the slots of the indices they claim, then
// Assemble. The set is bit-identical at any worker count, and an error is
// the one a walk in index order would have met first.
//
// Each worker generates into one scratch of its own (the families of this
// package both can), so what generation leaves behind is the series it
// keeps and not a generator and a selection copy per series.
func Generate(f Family) (*Set, error) {
	if tc, ok := f.(TenantColo); ok {
		// Every member of a group bursts on the group's timeline: derived
		// here once, it is read by all of them instead of derived by each.
		f = tc.withTimelines()
	}
	// The concrete types, not an interface a wrapper would inherit by
	// embedding and so bypass its own GenSeries.
	gen := func(i int, _ *scratch) (Series, error) { return f.GenSeries(i) }
	switch f := f.(type) {
	case EntropyFlow:
		gen = f.generate
	case tenantColoTimelines:
		gen = f.generate
	}
	n := f.Size()
	out := make([]Series, n)
	errs := make([]error, n)
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := newScratch()
			// Indices are claimed densely from 0 and a claimed index always
			// runs, so every index below a failing one reports too.
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if out[i], errs[i] = gen(i, sc); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return f.Assemble(out)
}

// mix derives a decorrelated child seed from a family seed and a stream
// index (SplitMix64 finalizer), so per-index RNG streams never overlap
// even for adjacent seeds or indices.
func mix(seed int64, stream uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// newRNG returns a rand.Rand for one (seed, stream) pair.
func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(mix(seed, stream)))
}

// scratch is what generating a series uses and does not keep: two
// generators, re-seeded in place for each stream they serve, and the buffers
// a family's draws and its threshold quantile work in. A series generated
// in a used scratch is bit for bit the one generated in a fresh scratch:
// (*rand.Rand).Seed(s) yields the stream rand.New(rand.NewSource(s)) does,
// and no buffer is read before it is written.
type scratch struct {
	rng, aux *rand.Rand
	work     []float64 // the threshold quantile's selection buffer

	// EntropyFlow: the attack schedule, a window's source histogram, an
	// epoch's target permutation, and the Zipf sampler over zipfN sources at
	// skew zipfS, which draws from rng.
	epoch, counts, perm []int
	zipf                *stats.Zipf
	zipfN               int
	zipfS               float64

	// TenantColo: the private burst starts and the per-event responses.
	solo    []int
	respond []float64
}

func newScratch() *scratch {
	return &scratch{rng: rand.New(rand.NewSource(0)), aux: rand.New(rand.NewSource(0))}
}

// reseed re-seeds r for one (seed, stream) pair: from here on it draws what
// newRNG(seed, stream) would.
func reseed(r *rand.Rand, seed int64, stream uint64) *rand.Rand {
	r.Seed(mix(seed, stream))
	return r
}

// permInto is r.Perm(len(m)) written into m: the same draws, the same
// permutation.
func permInto(r *rand.Rand, m []int) []int {
	for i := range m {
		j := r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// threshold is the series' (100−k)-th percentile threshold
// (task.ThresholdForSelectivity), selected in the scratch.
func (sc *scratch) threshold(values []float64, k float64) (float64, error) {
	t, work, err := task.ThresholdForSelectivityBuf(values, k, sc.work)
	sc.work = work
	return t, err
}

// resized returns s with length n, reusing its array where that is large
// enough. The contents are unspecified.
func resized[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// checkIndex validates a GenSeries index.
func checkIndex(family string, i, size int) error {
	if i < 0 || i >= size {
		return fmt.Errorf("workload %s: series index %d outside [0, %d)", family, i, size)
	}
	return nil
}
