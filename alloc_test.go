// Zero-allocation guards for the per-sample hot paths. These run on every
// sampling operation of every monitor, so any allocation here multiplies
// across a datacenter of monitors; BenchmarkSamplerObserve,
// BenchmarkAggregateObserve and BenchmarkMisdetectBound report the same
// paths' timings, and these tests make the 0 allocs/op they show a hard
// regression gate rather than an observation.
package volley_test

import (
	"math/rand"
	"testing"

	"volley"
)

func TestSamplerObserveZeroAlloc(t *testing.T) {
	s, err := volley.NewSampler(volley.SamplerConfig{
		Threshold:   100,
		Err:         0.01,
		MaxInterval: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	values := make([]float64, 4096)
	for i := range values {
		values[i] = 50 + 10*rng.NormFloat64()
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		s.Observe(values[i%len(values)])
		i++
	})
	if allocs != 0 {
		t.Errorf("Sampler.Observe allocates %.1f times per call, want 0", allocs)
	}
}

func TestAggregateObserveZeroAlloc(t *testing.T) {
	a, err := volley.NewAggregateSampler(volley.SamplerConfig{
		Threshold:   100,
		Err:         0.01,
		MaxInterval: 20,
	}, volley.AggregateMean, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	values := make([]float64, 4096)
	for i := range values {
		values[i] = 50 + 10*rng.NormFloat64()
	}
	i, interval := 0, 1
	var observeErr error
	allocs := testing.AllocsPerRun(2000, func() {
		iv, err := a.Observe(values[i%len(values)], interval)
		if err != nil {
			observeErr = err
			return
		}
		interval = iv
		i++
	})
	if observeErr != nil {
		t.Fatal(observeErr)
	}
	if allocs != 0 {
		t.Errorf("AggregateSampler.Observe allocates %.1f times per call, want 0", allocs)
	}
}

func TestMisdetectBoundZeroAlloc(t *testing.T) {
	var boundErr error
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := volley.MisdetectBound(volley.ChebyshevEstimator{}, 50, 100, 0.2, 3, 10); err != nil {
			boundErr = err
		}
	})
	if boundErr != nil {
		t.Fatal(boundErr)
	}
	if allocs != 0 {
		t.Errorf("MisdetectBound allocates %.1f times per call, want 0", allocs)
	}
}

// TestInstrumentedSamplerObserveZeroAlloc proves the observability layer's
// core promise: full instrumentation — counters, gauges, a bound histogram
// and ring-buffer decision tracing — adds zero allocations to the
// per-sample hot path.
func TestInstrumentedSamplerObserveZeroAlloc(t *testing.T) {
	s, err := volley.NewSampler(volley.SamplerConfig{
		Threshold:   100,
		Err:         0.01,
		MaxInterval: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := volley.NewMetrics()
	tracer := volley.NewTracer(256)
	s.Instrument(volley.SamplerObs{
		Tracer:       tracer,
		Node:         "alloc-test",
		Task:         "t",
		Observations: reg.Counter("volley_sampler_observations_total", "x", "instance", "alloc-test"),
		Grows:        reg.Counter("volley_sampler_interval_grows_total", "x", "instance", "alloc-test"),
		Resets:       reg.Counter("volley_sampler_interval_resets_total", "x", "instance", "alloc-test"),
		Intervals:    reg.Gauge("volley_sampler_interval", "x", "instance", "alloc-test"),
		Bound:        reg.Gauge("volley_sampler_bound", "x", "instance", "alloc-test"),
		BoundDist:    reg.Histogram("volley_sampler_bound_dist", "x", volley.DefBoundBuckets, "instance", "alloc-test"),
	})
	rng := rand.New(rand.NewSource(2))
	values := make([]float64, 4096)
	for i := range values {
		// A tight quiet signal (so the Chebyshev bound clears the allowance
		// and the interval grows) with rare threshold crossings (so the
		// reset branch and its trace events run too).
		values[i] = 50 + 2*rng.NormFloat64()
		if i > 0 && i%1024 == 0 {
			values[i] = 105
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		s.Observe(values[i%len(values)])
		i++
	})
	if allocs != 0 {
		t.Errorf("instrumented Sampler.Observe allocates %.1f times per call, want 0", allocs)
	}
	if tracer.Total() == 0 {
		t.Error("tracer recorded nothing; instrumentation inert")
	}
}
