// Benchmarks regenerating every evaluation figure of the paper (on the
// Quick preset so a full -bench=. pass stays fast; cmd/volleybench runs the
// paper-shaped Full preset), plus micro-benchmarks of the hot paths.
//
// Figure benches report their headline result as custom metrics
// (sampling_ratio, misdetect_rate, …) alongside the timing, so a single
//
//	go test -bench=. -benchmem
//
// both times the harness and regenerates the paper's numbers in shape.
package volley_test

import (
	"math/rand"
	"testing"

	"volley"
	"volley/internal/bench"
)

func BenchmarkFig1Motivating(b *testing.B) {
	p := bench.Quick()
	var last *bench.Fig1Result
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFig1(p)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.SchemeCSamples)/float64(last.SchemeASamples), "volley_ratio")
	b.ReportMetric(float64(last.SchemeBMissed)/float64(last.Alerts), "periodicalB_missrate")
	b.ReportMetric(float64(last.SchemeCMissed)/float64(last.Alerts), "volley_missrate")
}

func benchmarkSweep(b *testing.B, run func(bench.Preset) (*bench.SweepResult, error)) {
	p := bench.Quick()
	var last *bench.SweepResult
	for i := 0; i < b.N; i++ {
		r, err := run(p)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	// Headline cell: smallest selectivity, largest allowance.
	cell := last.Cells[len(last.Ks)-1][len(last.Errs)-1]
	b.ReportMetric(cell.Ratio, "sampling_ratio")
	b.ReportMetric(last.MaxSaving(), "max_saving")
}

func BenchmarkFig5aNetwork(b *testing.B)     { benchmarkSweep(b, bench.RunFig5a) }
func BenchmarkFig5bSystem(b *testing.B)      { benchmarkSweep(b, bench.RunFig5b) }
func BenchmarkFig5cApplication(b *testing.B) { benchmarkSweep(b, bench.RunFig5c) }

func BenchmarkFig6CPU(b *testing.B) {
	p := bench.Quick()
	var last *bench.Fig6Result
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFig6(p, 1)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	periodical, largest := last.BaselineMedian()
	b.ReportMetric(periodical, "cpu_median_periodical_pct")
	b.ReportMetric(largest, "cpu_median_volley_pct")
}

func BenchmarkFig7Accuracy(b *testing.B) {
	p := bench.Quick()
	var last *bench.SweepResult
	for i := 0; i < b.N; i++ {
		series, err := bench.GenSystem(p.SysNodes, p.SysMetricsPerNode, p.SysSteps, p.Seed+100)
		if err != nil {
			b.Fatal(err)
		}
		r, err := bench.RunSweep("fig7-system-accuracy", series, p)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	cell := last.Cells[len(last.Ks)-1][len(last.Errs)-1]
	b.ReportMetric(cell.Misdetect, "misdetect_rate")
	b.ReportMetric(last.Errs[len(last.Errs)-1], "allowance")
}

func BenchmarkFig8Coordination(b *testing.B) {
	p := bench.Quick()
	var last *bench.Fig8Result
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFig8(p)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	n := len(last.Skews) - 1
	b.ReportMetric(last.AdaptRatio[n], "adapt_ratio_maxskew")
	b.ReportMetric(last.EvenRatio[n], "even_ratio_maxskew")
}

func benchmarkAblation(b *testing.B, run func(bench.Preset) (*bench.AblationResult, error)) {
	p := bench.Quick()
	var last *bench.AblationResult
	for i := 0; i < b.N; i++ {
		r, err := run(p)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(len(last.Rows)), "configurations")
}

func BenchmarkAblationSlack(b *testing.B)       { benchmarkAblation(b, bench.RunAblationSlack) }
func BenchmarkAblationEstimator(b *testing.B)   { benchmarkAblation(b, bench.RunAblationEstimator) }
func BenchmarkAblationAdaptation(b *testing.B)  { benchmarkAblation(b, bench.RunAblationGrowth) }
func BenchmarkAblationRestart(b *testing.B)     { benchmarkAblation(b, bench.RunAblationStatsWindow) }
func BenchmarkAblationCoordPeriod(b *testing.B) { benchmarkAblation(b, bench.RunAblationCoordPeriod) }

// BenchmarkSamplerObserve times the per-sample adaptation step — the code
// that runs on every sampling operation of every monitor in a datacenter,
// so it must stay cheap (the paper stresses "low-cost estimation methods").
func BenchmarkSamplerObserve(b *testing.B) {
	s, err := volley.NewSampler(volley.SamplerConfig{
		Threshold:   100,
		Err:         0.01,
		MaxInterval: 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	values := make([]float64, 4096)
	for i := range values {
		values[i] = 50 + 10*rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(values[i%len(values)])
	}
}

// BenchmarkMisdetectBound times the violation-likelihood estimation alone
// at a representative interval.
func BenchmarkMisdetectBound(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := volley.MisdetectBound(volley.ChebyshevEstimator{}, 50, 100, 0.2, 3, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThresholdForSelectivity times threshold derivation over a
// realistic trace length.
func BenchmarkThresholdForSelectivity(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	values := make([]float64, 15000)
	for i := range values {
		values[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := volley.ThresholdForSelectivity(values, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselines regenerates the equal-budget baseline comparison.
func BenchmarkBaselines(b *testing.B) {
	p := bench.Quick()
	var last *bench.BaselineResult
	for i := 0; i < b.N; i++ {
		r, err := bench.RunBaselines(p, 1, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Rows[0].Misdetect, "volley_missrate")
	b.ReportMetric(last.Rows[1].Misdetect, "periodical_missrate")
	b.ReportMetric(last.Rows[2].Misdetect, "random_missrate")
}

// BenchmarkAblationAggregation regenerates the aggregation-window study.
func BenchmarkAblationAggregation(b *testing.B) {
	benchmarkAblation(b, bench.RunAblationAggregation)
}

// BenchmarkAggregateObserve times the windowed-aggregate hot path.
func BenchmarkAggregateObserve(b *testing.B) {
	a, err := volley.NewAggregateSampler(volley.SamplerConfig{
		Threshold:   100,
		Err:         0.01,
		MaxInterval: 20,
	}, volley.AggregateMean, 16)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	values := make([]float64, 4096)
	for i := range values {
		values[i] = 50 + 10*rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	interval := 1
	for i := 0; i < b.N; i++ {
		iv, err := a.Observe(values[i%len(values)], interval)
		if err != nil {
			b.Fatal(err)
		}
		interval = iv
	}
}

// BenchmarkAblationThresholdSplit regenerates the threshold-decomposition
// study (even vs weighted split of the same global threshold).
func BenchmarkAblationThresholdSplit(b *testing.B) {
	benchmarkAblation(b, bench.RunAblationThresholdSplit)
}
