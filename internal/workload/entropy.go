package workload

import (
	"fmt"
	"math"
	"math/rand"

	"volley/internal/stats"
	"volley/internal/task"
)

// EntropyFlow is the entropy-of-flow-distribution family: every node
// observes a window of packets drawn from its local source-address space —
// Zipfian background traffic — and reports an EWMA-smoothed entropy
// deficit
//
//	x = log2(Sources) − H(window),  v ← Smoothing·x + (1−Smoothing)·v
//
// as its monitored value, where H is the empirical entropy of the source
// histogram in bits. Injected DDoS epochs concentrate a large share of an
// attacked node's packets on a handful of attacker sources, which
// collapses H and spikes the deficit; monitoring "aggregate deficit > T"
// is the classic distributed anomaly detector (entropy collapse across the
// datacenter), phrased so violations are Above-threshold like the rest of
// the repo. The smoothing matters for more than realism (production
// entropy detectors smooth their estimate to tame the multinomial noise of
// finite windows): it shrinks the step-to-step δ variance the
// violation-likelihood estimator sees, which is what lets an adaptive
// sampler relax during clean traffic instead of chasing raw estimator
// noise.
//
// Each node's local threshold is cut deep into its own attack band
// (Selectivity well below the per-node attack-window fraction), so the
// local sampling tasks see a wide threshold gap during clean traffic. The
// global task's threshold is derived from the aggregate series itself at
// GlobalSelectivity — not as the sum of the locals, which would sit above
// the attack-time aggregate whenever AttackNodes < 1 and never fire.
//
// Attack epochs are scheduled from the config seed alone and each node
// re-derives the schedule independently, so GenSeries(i) stays
// index-independent (the engine's parallel-generation contract).
type EntropyFlow struct {
	// Nodes is the number of monitors; WindowsN the series length.
	Nodes    int
	WindowsN int
	// Sources is the size of each node's background source-address space;
	// PacketsPerWindow how many packets each window draws.
	Sources          int
	PacketsPerWindow int
	// Skew is the Zipf skew of the background source popularity.
	Skew float64
	// Smoothing is the EWMA factor applied to the raw per-window deficit
	// (1 = no smoothing).
	Smoothing float64
	// AttackEvery is the mean gap between attack epochs in windows;
	// AttackLen the epoch length. The first Warmup windows are kept clean
	// so thresholds and sampler statistics have an attack-free prefix.
	AttackEvery int
	AttackLen   int
	Warmup      int
	// AttackNodes is the fraction of nodes hit by each epoch; AttackShare
	// the fraction of an attacked node's packets redirected to the
	// AttackSources attacker addresses.
	AttackNodes   float64
	AttackShare   float64
	AttackSources int
	// Selectivity derives each node's local threshold: the (100−k)-th
	// percentile of its own series (the paper's task-creation methodology).
	// It should sit below the per-node attack-window fraction
	// (epochs·AttackLen/Windows · AttackNodes) so the threshold lands
	// inside the attack band rather than in the clean-noise tail.
	Selectivity float64
	// GlobalSelectivity derives the global task's threshold from the
	// aggregate deficit series the same way.
	GlobalSelectivity float64
	// Err is the per-node error allowance; the fleet-wide misdetection
	// budget is at most Nodes·Err by the union bound.
	Err float64
	// Seed drives all randomness.
	Seed int64
}

// DefaultEntropyFlow returns the tuned entropy family: 256 background
// sources per node at Zipf skew 1.1, 300-packet windows smoothed at
// α = 0.25, and epochs every ~160 windows hitting 30% of nodes with an 80%
// traffic share on 2 attacker sources — a deep, unambiguous entropy
// collapse on attacked nodes (the per-node attack-window fraction is
// ~0.9%, so the default local selectivity of 0.5% cuts the threshold into
// the attack band).
func DefaultEntropyFlow(nodes, windows int, seed int64) EntropyFlow {
	return EntropyFlow{
		Nodes:             nodes,
		WindowsN:          windows,
		Sources:           256,
		PacketsPerWindow:  300,
		Skew:              1.1,
		Smoothing:         0.25,
		AttackEvery:       160,
		AttackLen:         8,
		Warmup:            100,
		AttackNodes:       0.3,
		AttackShare:       0.8,
		AttackSources:     2,
		Selectivity:       0.5,
		GlobalSelectivity: 3.5,
		Err:               0.02,
		Seed:              seed,
	}
}

// Name implements Family.
func (f EntropyFlow) Name() string { return "entropy-flow" }

// Signal implements Family.
func (f EntropyFlow) Signal() string {
	return "per-node source-address entropy deficit (bits); DDoS epochs collapse entropy"
}

// Size implements Family.
func (f EntropyFlow) Size() int { return f.Nodes }

// Windows implements Family.
func (f EntropyFlow) Windows() int { return f.WindowsN }

func (f EntropyFlow) validate() error {
	switch {
	case f.Nodes < 1:
		return fmt.Errorf("workload entropy-flow: need ≥ 1 node, got %d", f.Nodes)
	case f.WindowsN < 2:
		return fmt.Errorf("workload entropy-flow: need ≥ 2 windows, got %d", f.WindowsN)
	case f.Sources < 2:
		return fmt.Errorf("workload entropy-flow: need ≥ 2 sources, got %d", f.Sources)
	case f.PacketsPerWindow < 1:
		return fmt.Errorf("workload entropy-flow: need ≥ 1 packet per window, got %d", f.PacketsPerWindow)
	case f.Skew < 0 || math.IsNaN(f.Skew):
		return fmt.Errorf("workload entropy-flow: negative skew %v", f.Skew)
	case f.Smoothing <= 0 || f.Smoothing > 1 || math.IsNaN(f.Smoothing):
		return fmt.Errorf("workload entropy-flow: smoothing %v outside (0, 1]", f.Smoothing)
	case f.AttackEvery < 1 || f.AttackLen < 1 || f.AttackSources < 1:
		return fmt.Errorf("workload entropy-flow: attack epoch shape must be positive (every %d, len %d, sources %d)",
			f.AttackEvery, f.AttackLen, f.AttackSources)
	case f.Warmup < 0:
		return fmt.Errorf("workload entropy-flow: negative warmup %d", f.Warmup)
	case f.AttackNodes <= 0 || f.AttackNodes > 1:
		return fmt.Errorf("workload entropy-flow: attack node fraction %v outside (0, 1]", f.AttackNodes)
	case f.AttackShare <= 0 || f.AttackShare > 1:
		return fmt.Errorf("workload entropy-flow: attack share %v outside (0, 1]", f.AttackShare)
	case f.Selectivity <= 0 || f.Selectivity >= 100:
		return fmt.Errorf("workload entropy-flow: selectivity %v outside (0, 100)", f.Selectivity)
	case f.GlobalSelectivity <= 0 || f.GlobalSelectivity >= 100:
		return fmt.Errorf("workload entropy-flow: global selectivity %v outside (0, 100)", f.GlobalSelectivity)
	case f.Err <= 0 || f.Err >= 1:
		return fmt.Errorf("workload entropy-flow: err %v outside (0, 1)", f.Err)
	}
	return nil
}

// Stream namespaces for the family's decorrelated RNG streams.
const (
	entropyStreamSchedule = 1 << 32
	entropyStreamEpoch    = 2 << 32
	entropyStreamNode     = 3 << 32
)

// schedule derives the attack-epoch timeline from the seed alone:
// epoch[w] is the epoch index covering window w, or −1 outside epochs.
func (f EntropyFlow) schedule() (epoch []int, epochs int) {
	epoch = make([]int, f.WindowsN)
	return epoch, f.scheduleInto(epoch, newRNG(f.Seed, entropyStreamSchedule))
}

// scheduleInto is schedule written into epoch (WindowsN long), drawing from
// rng, which the caller seeds for the schedule stream.
func (f EntropyFlow) scheduleInto(epoch []int, rng *rand.Rand) (epochs int) {
	for i := range epoch {
		epoch[i] = -1
	}
	w := f.Warmup
	for {
		w += f.AttackEvery/2 + rng.Intn(f.AttackEvery)
		if w >= f.WindowsN {
			return epochs
		}
		for j := 0; j < f.AttackLen && w+j < f.WindowsN; j++ {
			epoch[w+j] = epochs
		}
		w += f.AttackLen
		epochs++
	}
}

// attacked reports whether node i is targeted by the given epoch, using the
// scratch's second generator and permutation buffer. Every node derives the
// same per-epoch target set from (seed, epoch), so the answer is
// index-independent.
func (f EntropyFlow) attacked(node, epoch int, sc *scratch) bool {
	k := int(math.Round(f.AttackNodes * float64(f.Nodes)))
	if k < 1 {
		k = 1
	}
	sc.perm = resized(sc.perm, f.Nodes)
	perm := permInto(reseed(sc.aux, f.Seed, entropyStreamEpoch+uint64(epoch)), sc.perm)
	for _, n := range perm[:k] {
		if n == node {
			return true
		}
	}
	return false
}

// GenSeries implements Family: node i's entropy-deficit series.
func (f EntropyFlow) GenSeries(i int) (Series, error) {
	return f.generate(i, newScratch())
}

func (f EntropyFlow) generate(i int, sc *scratch) (Series, error) {
	if err := f.validate(); err != nil {
		return Series{}, err
	}
	if err := checkIndex(f.Name(), i, f.Nodes); err != nil {
		return Series{}, err
	}
	sc.epoch = resized(sc.epoch, f.WindowsN)
	epoch := sc.epoch
	f.scheduleInto(epoch, reseed(sc.rng, f.Seed, entropyStreamSchedule))
	rng := reseed(sc.rng, f.Seed, entropyStreamNode+uint64(i))
	if sc.zipf == nil || sc.zipfN != f.Sources || sc.zipfS != f.Skew {
		// The sampler holds rng, re-seeded in place: built once per scratch.
		zipf, err := stats.NewZipf(rng, f.Sources, f.Skew)
		if err != nil {
			return Series{}, fmt.Errorf("workload entropy-flow: %w", err)
		}
		sc.zipf, sc.zipfN, sc.zipfS = zipf, f.Sources, f.Skew
	}
	zipf := sc.zipf

	maxDeficit := math.Log2(float64(f.Sources))
	sc.counts = resized(sc.counts, f.Sources+f.AttackSources)
	counts := sc.counts
	values := make([]float64, f.WindowsN)
	memoEpoch, memoAttacked := -1, false
	ewma := 0.0
	for w := range values {
		underAttack := false
		if e := epoch[w]; e >= 0 {
			if e != memoEpoch {
				memoEpoch, memoAttacked = e, f.attacked(i, e, sc)
			}
			underAttack = memoAttacked
		}
		for c := range counts {
			counts[c] = 0
		}
		for p := 0; p < f.PacketsPerWindow; p++ {
			if underAttack && rng.Float64() < f.AttackShare {
				counts[f.Sources+rng.Intn(f.AttackSources)]++
			} else {
				counts[zipf.Draw()]++
			}
		}
		x := maxDeficit - entropyBits(counts, f.PacketsPerWindow)
		if w == 0 {
			ewma = x
		} else {
			ewma += f.Smoothing * (x - ewma)
		}
		values[w] = ewma
	}
	threshold, err := sc.threshold(values, f.Selectivity)
	if err != nil {
		return Series{}, fmt.Errorf("workload entropy-flow: node %d: %w", i, err)
	}
	return Series{
		ID:        fmt.Sprintf("node-%03d", i),
		Values:    values,
		Threshold: threshold,
		Err:       f.Err,
		Cost:      1,
	}, nil
}

// Assemble implements Family: the global signal is the aggregate deficit,
// the global threshold is derived from the aggregate series itself at
// GlobalSelectivity (summing the attack-band local thresholds would
// overshoot the attack-time aggregate whenever AttackNodes < 1), and the
// ground truth the injected attack epochs.
func (f EntropyFlow) Assemble(series []Series) (*Set, error) {
	if err := f.validate(); err != nil {
		return nil, err
	}
	if len(series) != f.Nodes {
		return nil, fmt.Errorf("workload entropy-flow: assemble got %d series, want %d", len(series), f.Nodes)
	}
	set := &Set{
		Family:    f.Name(),
		Signal:    f.Signal(),
		Series:    series,
		Global:    make([]float64, f.WindowsN),
		GlobalErr: f.Err,
	}
	for _, s := range series {
		if len(s.Values) != f.WindowsN {
			return nil, fmt.Errorf("workload entropy-flow: series %s has %d windows, want %d", s.ID, len(s.Values), f.WindowsN)
		}
		for w, v := range s.Values {
			set.Global[w] += v
		}
	}
	gt, err := task.ThresholdForSelectivity(set.Global, f.GlobalSelectivity)
	if err != nil {
		return nil, fmt.Errorf("workload entropy-flow: global threshold: %w", err)
	}
	set.GlobalThreshold = gt
	epoch, _ := f.schedule()
	set.Truth = make([]bool, f.WindowsN)
	for w, e := range epoch {
		set.Truth[w] = e >= 0
	}
	return set, nil
}

// entropyBits is the empirical entropy of a histogram, in bits, over total
// samples.
func entropyBits(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	h := 0.0
	n := float64(total)
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}
