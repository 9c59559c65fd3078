package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"volley/internal/bench"
	"volley/internal/task"
)

// Streaming-threshold benchmark scales. The memory profile compares the
// two cache backends at a trace length and 10× that length (constant
// streaming bytes = the O(1) claim); the maintenance comparison uses a
// paper-scale retained trace; the soak holds a million live sketches at
// once — the configuration whose sorted copies would need ~120 GB.
var (
	streamingMemSeries   = 64
	streamingMemSteps    = []int{3_000, 30_000, 300_000}
	streamingMaintTrace  = 100_000
	streamingMaintWindow = 64
	streamingFleetSeries = 100_000
	streamingSoakSeries  = 1_000_000
	streamingSoakSteps   = 128
)

// streamingObserveEntry is the per-observation cost of the sketch path,
// steady state. Allocs must stay at zero (the zero-alloc guard tests gate
// it; the artifact records it).
type streamingObserveEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// streamingMaintenanceEntry compares one threshold-grid refresh (absorb a
// window of new observations, re-derive the grid) between the sorted-copy
// baseline and the streaming sketch, per series and extrapolated to a
// fleet of streamingFleetSeries series.
type streamingMaintenanceEntry struct {
	TraceSteps            int     `json:"trace_steps"`
	Window                int     `json:"window"`
	ExactNsPerRefresh     float64 `json:"exact_ns_per_refresh"`
	StreamingNsPerRefresh float64 `json:"streaming_ns_per_refresh"`
	Speedup               float64 `json:"speedup"`
	FleetSeries           int     `json:"fleet_series"`
	ExactFleetMsPerCycle  float64 `json:"exact_fleet_ms_per_cycle"`
	StreamFleetMsPerCycle float64 `json:"streaming_fleet_ms_per_cycle"`
	StreamingAllocsPerOp  int64   `json:"streaming_allocs_per_op"`
}

// streamingErrorEntry is one (preset, workload) accuracy audit.
type streamingErrorEntry struct {
	Preset string `json:"preset"`
	bench.StreamingErrorCheckResult
}

// streamingBenchReport is the schema of BENCH_streaming.json.
type streamingBenchReport struct {
	GoMaxProcs       int                          `json:"gomaxprocs"`
	Memory           []bench.StreamingMemoryPoint `json:"memory"`
	Observe          streamingObserveEntry        `json:"observe"`
	Maintenance      streamingMaintenanceEntry    `json:"maintenance"`
	Soak             *bench.StreamingSoakResult   `json:"soak"`
	ErrorChecks      []streamingErrorEntry        `json:"error_checks"`
	TotalWallClockNS int64                        `json:"total_wall_clock_ns"`
}

// writeStreamingBenchJSON measures the streaming-threshold stack (memory
// profile, per-observation cost, maintenance comparison, million-series
// soak, per-preset accuracy audit) and writes the results to path.
func writeStreamingBenchJSON(path string, out *os.File) error {
	ks := bench.Full().Ks
	report := streamingBenchReport{GoMaxProcs: runtime.GOMAXPROCS(0)}
	start := time.Now()

	mem, err := bench.StreamingMemoryProfile(streamingMemSeries, streamingMemSteps, ks)
	if err != nil {
		return fmt.Errorf("streaming bench memory profile: %w", err)
	}
	report.Memory = mem

	report.Observe, err = measureStreamingObserve(ks)
	if err != nil {
		return fmt.Errorf("streaming bench observe: %w", err)
	}

	report.Maintenance, err = measureStreamingMaintenance(ks)
	if err != nil {
		return fmt.Errorf("streaming bench maintenance: %w", err)
	}

	report.Soak, err = bench.StreamingSoak(streamingSoakSeries, streamingSoakSteps, bench.Full().SysSteps, ks)
	if err != nil {
		return fmt.Errorf("streaming bench soak: %w", err)
	}

	for _, pre := range []struct {
		name string
		p    bench.Preset
	}{{"quick", bench.Quick()}, {"full", bench.Full()}} {
		workloads, err := bench.PresetWorkloads(pre.p)
		if err != nil {
			return fmt.Errorf("streaming bench workloads %s: %w", pre.name, err)
		}
		for _, wl := range []string{"network", "system", "application"} {
			check, err := bench.StreamingErrorCheck(wl, workloads[wl], pre.p.Ks)
			if err != nil {
				return fmt.Errorf("streaming bench error check %s/%s: %w", pre.name, wl, err)
			}
			report.ErrorChecks = append(report.ErrorChecks, streamingErrorEntry{
				Preset:                    pre.name,
				StreamingErrorCheckResult: *check,
			})
		}
	}
	report.TotalWallClockNS = time.Since(start).Nanoseconds()

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}

	for _, m := range report.Memory {
		fmt.Fprintf(out, "memory steps=%-6d streaming %6d B/series, exact %8d B/series\n",
			m.Steps, m.StreamingBytesPerSeries, m.ExactBytesPerSeries)
	}
	fmt.Fprintf(out, "observe %.0f ns/op %d B/op %d allocs/op\n",
		report.Observe.NsPerOp, report.Observe.BytesPerOp, report.Observe.AllocsPerOp)
	m := report.Maintenance
	fmt.Fprintf(out, "maintenance trace=%d window=%d: exact %.0f ns, streaming %.0f ns (%.0fx); fleet of %d: %.0f ms -> %.2f ms\n",
		m.TraceSteps, m.Window, m.ExactNsPerRefresh, m.StreamingNsPerRefresh, m.Speedup,
		m.FleetSeries, m.ExactFleetMsPerCycle, m.StreamFleetMsPerCycle)
	fmt.Fprintf(out, "soak %d series x %d steps: %.1f MB resident (%.0f B/series); exact at %d steps would need %.0f GB\n",
		report.Soak.Series, report.Soak.StepsPerSeries,
		float64(report.Soak.ResidentBytes)/(1<<20), report.Soak.BytesPerSeries,
		report.Soak.HypotheticalTrace, float64(report.Soak.HypotheticalExactBytes)/(1<<30))
	for _, e := range report.ErrorChecks {
		fmt.Fprintf(out, "error %s/%-11s %3d series: max rank error %.4f (bound %.2f)\n",
			e.Preset, e.Workload, e.Series, e.MaxRankError, e.Bound)
	}
	fmt.Fprintf(out, "wrote BENCH_streaming report to %s (total %s)\n",
		path, time.Duration(report.TotalWallClockNS).Round(time.Millisecond))
	return nil
}

// measureStreamingObserve times the steady-state per-observation cost of a
// grid-sized sketch on a noisy diurnal stream.
func measureStreamingObserve(ks []float64) (streamingObserveEntry, error) {
	st, err := task.NewStreamingThresholds(ks)
	if err != nil {
		return streamingObserveEntry{}, err
	}
	rng := rand.New(rand.NewSource(7))
	values := make([]float64, 8192)
	for i := range values {
		values[i] = 20 + 5*math.Sin(float64(i)/200) + rng.NormFloat64()
	}
	for _, v := range values { // warm past the exact phase
		st.Observe(v)
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st.Observe(values[i&(len(values)-1)])
		}
	})
	return streamingObserveEntry{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}, nil
}

// measureStreamingMaintenance times one threshold-grid refresh per backend
// over a paper-scale retained trace.
func measureStreamingMaintenance(ks []float64) (streamingMaintenanceEntry, error) {
	h, err := bench.NewMaintenanceHarness(streamingMaintTrace, streamingMaintWindow, ks, 3)
	if err != nil {
		return streamingMaintenanceEntry{}, err
	}
	if _, err := h.ExactRefresh(); err != nil {
		return streamingMaintenanceEntry{}, err
	}
	if _, err := h.StreamingRefresh(); err != nil {
		return streamingMaintenanceEntry{}, err
	}
	exact := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := h.ExactRefresh(); err != nil {
				b.Fatal(err)
			}
		}
	})
	stream := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := h.StreamingRefresh(); err != nil {
				b.Fatal(err)
			}
		}
	})
	exactNs := float64(exact.T.Nanoseconds()) / float64(exact.N)
	streamNs := float64(stream.T.Nanoseconds()) / float64(stream.N)
	return streamingMaintenanceEntry{
		TraceSteps:            h.Steps(),
		Window:                h.Window(),
		ExactNsPerRefresh:     exactNs,
		StreamingNsPerRefresh: streamNs,
		Speedup:               exactNs / streamNs,
		FleetSeries:           streamingFleetSeries,
		ExactFleetMsPerCycle:  exactNs * float64(streamingFleetSeries) / 1e6,
		StreamFleetMsPerCycle: streamNs * float64(streamingFleetSeries) / 1e6,
		StreamingAllocsPerOp:  stream.AllocsPerOp(),
	}, nil
}
