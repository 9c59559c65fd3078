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
	"sync"
	"sync/atomic"
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
func Generate(f Family) (*Set, error) {
	if tc, ok := f.(TenantColo); ok {
		// Every member of a group bursts on the group's timeline: derived
		// here once, it is read by all of them instead of derived by each.
		f = tc.withTimelines()
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
			// Indices are claimed densely from 0 and a claimed index always
			// runs, so every index below a failing one reports too.
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if out[i], errs[i] = f.GenSeries(i); errs[i] != nil {
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

// rng returns a rand.Rand for one (seed, stream) pair.
func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(mix(seed, stream)))
}

// checkIndex validates a GenSeries index.
func checkIndex(family string, i, size int) error {
	if i < 0 || i >= size {
		return fmt.Errorf("workload %s: series index %d outside [0, %d)", family, i, size)
	}
	return nil
}
