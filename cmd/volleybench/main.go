// Command volleybench regenerates the evaluation figures of the Volley
// paper (ICDCS 2013) as text tables: the motivating example (Fig. 1), the
// overhead-saving sweeps (Fig. 5a–c), the Dom0 CPU distribution (Fig. 6),
// the accuracy grid (Fig. 7), the distributed-coordination comparison
// (Fig. 8), an equal-budget baseline comparison, and the ablations listed
// in DESIGN.md §6.
//
// Usage:
//
//	volleybench [-fig all|1|5a|5b|5c|6|7|8|ablations] [-preset full|quick]
//	            [-procs N] [-csv dir] [-json file] [-coordjson file]
//
// -procs sizes the experiment engine's worker pool (0 = all cores, 1 =
// fully serial); the figures are bit-identical for every value. -json
// runs the figure suite once and writes headline metrics (sampling
// ratios, mis-detection rates, per-figure wall clock) to the given file —
// `make bench-json` uses it to track the performance trajectory in
// BENCH_quick.json. -coordjson skips the figures and instead benchmarks
// the coordinator rebalance hot path at 100/1k/10k monitors, writing
// ns/op and allocs/op to the given file — `make bench-coord` uses it to
// track BENCH_coord.json. -streamingjson benchmarks the bounded-memory
// streaming threshold sketches (resident bytes per series vs trace length,
// ns per observation, grid-refresh cost against the sorted-copy baseline,
// a million-series soak, and the sketch-vs-exact rank-error audit on both
// presets) — `make bench-streaming` uses it to track BENCH_streaming.json.
//
// Absolute numbers come from the synthetic workloads documented in
// DESIGN.md §2; the shapes are what reproduce the paper (see
// EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"volley/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: all, 1, 5a, 5b, 5c, 6, 7, 8, baselines, ablations, workloads")
	preset := flag.String("preset", "full", "experiment sizes: full or quick")
	csvDir := flag.String("csv", "", "also write each figure's data as CSV into this directory")
	procs := flag.Int("procs", 0, "experiment-engine workers: 0 = all cores, 1 = serial")
	jsonPath := flag.String("json", "", "write headline metrics (ratios, misdetect rates, wall clock) as JSON to this file instead of printing tables")
	coordJSONPath := flag.String("coordjson", "", "benchmark the coordinator rebalance hot path at 100/1k/10k monitors and write ns/op and allocs/op as JSON to this file")
	clusterJSONPath := flag.String("clusterjson", "", "benchmark consistent-hash task placement at 4/16/64 shards and write ns/op, allocs/op and movement fractions as JSON to this file")
	transportJSONPath := flag.String("transportjson", "", "benchmark the wire codec (encode cost against stdlib gob) and the TCP transport (batched vs not) over loopback and write throughput and bytes/msg as JSON to this file")
	alertsJSONPath := flag.String("alertsjson", "", "benchmark the alert registry hot paths (dedup raise, local observe, lifecycle, snapshot export) and write ns/op and allocs/op as JSON to this file")
	streamingJSONPath := flag.String("streamingjson", "", "benchmark the streaming threshold sketches (resident bytes vs trace length, ns/observe, refresh cost vs sorted-copy baseline, million-series soak, per-preset rank error) and write the results as JSON to this file")
	workloadJSONPath := flag.String("workloadjson", "", "run the workload families (entropy-flow, tenant-colo) end to end and write their savings-vs-misdetection curves and the correlation-gated tenant run as JSON to this file")
	flag.Parse()

	p, err := presetByName(*preset)
	if err != nil {
		fmt.Fprintln(os.Stderr, "volleybench:", err)
		os.Exit(1)
	}
	p.Procs = *procs

	start := time.Now()
	if *coordJSONPath != "" {
		if err := writeCoordBenchJSON(*coordJSONPath, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "volleybench:", err)
			os.Exit(1)
		}
		return
	}
	if *clusterJSONPath != "" {
		if err := writeClusterBenchJSON(*clusterJSONPath, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "volleybench:", err)
			os.Exit(1)
		}
		return
	}
	if *transportJSONPath != "" {
		if err := writeTransportBenchJSON(*transportJSONPath, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "volleybench:", err)
			os.Exit(1)
		}
		return
	}
	if *alertsJSONPath != "" {
		if err := writeAlertsBenchJSON(*alertsJSONPath, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "volleybench:", err)
			os.Exit(1)
		}
		return
	}
	if *streamingJSONPath != "" {
		if err := writeStreamingBenchJSON(*streamingJSONPath, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "volleybench:", err)
			os.Exit(1)
		}
		return
	}
	if *workloadJSONPath != "" {
		if err := writeWorkloadBenchJSON(p, *preset, *workloadJSONPath, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "volleybench:", err)
			os.Exit(1)
		}
		return
	}
	if *jsonPath != "" {
		err = writeBenchJSON(p, *preset, *jsonPath, os.Stdout)
	} else {
		err = runFigures(*fig, p, csvWriter(*csvDir), os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "volleybench:", err)
		os.Exit(1)
	}
	if cells, _ := bench.EngineMetrics(); cells > 0 {
		elapsed := time.Since(start)
		fmt.Printf("engine: %d experiment cells in %v (%.0f cells/sec, %d workers)\n",
			cells, elapsed.Round(time.Millisecond),
			float64(cells)/elapsed.Seconds(), bench.NewEngine(p.Procs).Procs())
	}
}

func presetByName(name string) (bench.Preset, error) {
	switch strings.ToLower(name) {
	case "full":
		return bench.Full(), nil
	case "quick":
		return bench.Quick(), nil
	default:
		return bench.Preset{}, fmt.Errorf("unknown preset %q (want full or quick)", name)
	}
}

func csvWriter(csvDir string) func(name, data string) error {
	return func(name, data string) error {
		if csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(csvDir, name), []byte(data), 0o644)
	}
}

// run keeps the original signature for tests; run2 adds CSV output.
func run(fig, preset string, out *os.File) error {
	return run2(fig, preset, "", out)
}

func run2(fig, preset, csvDir string, out *os.File) error {
	p, err := presetByName(preset)
	if err != nil {
		return err
	}
	return runFigures(fig, p, csvWriter(csvDir), out)
}

// runFig7 is the accuracy view of the system-level sweep (the paper shows
// system-level mis-detection rates; network and application "results are
// similar").
func runFig7(p bench.Preset) (*bench.SweepResult, error) {
	series, err := bench.GenSystem(p.SysNodes, p.SysMetricsPerNode, p.SysSteps, p.Seed+100)
	if err != nil {
		return nil, err
	}
	return bench.RunSweep("fig7-system-accuracy", series, p)
}

func runFigures(fig string, p bench.Preset, writeCSV func(name, data string) error, out *os.File) error {
	want := func(name string) bool { return fig == "all" || fig == name }
	ran := false
	ablationIdx := 1

	if want("1") {
		ran = true
		r, err := bench.RunFig1(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, r.Table())
		if err := writeCSV("fig1.csv", r.CSV()); err != nil {
			return err
		}
	}
	if want("5a") {
		ran = true
		r, err := bench.RunFig5a(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, r.RatioTable())
		fmt.Fprintf(out, "fig5a max saving: %.1f%%\n\n", 100*r.MaxSaving())
		if err := writeCSV("fig5a.csv", r.CSV()); err != nil {
			return err
		}
	}
	if want("5b") {
		ran = true
		r, err := bench.RunFig5b(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, r.RatioTable())
		fmt.Fprintf(out, "fig5b max saving: %.1f%%\n\n", 100*r.MaxSaving())
		if err := writeCSV("fig5b.csv", r.CSV()); err != nil {
			return err
		}
	}
	if want("5c") {
		ran = true
		r, err := bench.RunFig5c(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, r.RatioTable())
		fmt.Fprintf(out, "fig5c max saving: %.1f%%\n\n", 100*r.MaxSaving())
		if err := writeCSV("fig5c.csv", r.CSV()); err != nil {
			return err
		}
	}
	if want("6") {
		ran = true
		r, err := bench.RunFig6(p, 1)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, r.Table())
		if err := writeCSV("fig6.csv", r.CSV()); err != nil {
			return err
		}
		periodical, largest := r.BaselineMedian()
		fmt.Fprintf(out, "fig6 median CPU: %.1f%% (periodical) -> %.1f%% (largest allowance)\n\n",
			periodical, largest)
	}
	if want("7") {
		ran = true
		r, err := runFig7(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, r.MisdetectTable())
		if err := writeCSV("fig7.csv", r.CSV()); err != nil {
			return err
		}
	}
	if want("8") {
		ran = true
		r, err := bench.RunFig8(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, r.Table())
		if err := writeCSV("fig8.csv", r.CSV()); err != nil {
			return err
		}
	}
	if want("baselines") {
		ran = true
		r, err := bench.RunBaselines(p, 1, 0.01)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, r.Table())
		if err := writeCSV("baselines.csv", r.CSV()); err != nil {
			return err
		}
	}
	if want("ablations") {
		ran = true
		type runner func(bench.Preset) (*bench.AblationResult, error)
		for _, ab := range []runner{
			bench.RunAblationSlack,
			bench.RunAblationEstimator,
			bench.RunAblationGrowth,
			bench.RunAblationStatsWindow,
			bench.RunAblationCoordPeriod,
			bench.RunAblationAggregation,
			bench.RunAblationThresholdSplit,
		} {
			r, err := ab(p)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, r.Table())
			if err := writeCSV(fmt.Sprintf("ablation-%02d.csv", ablationIdx), r.CSV()); err != nil {
				return err
			}
			ablationIdx++
		}
	}
	if want("workloads") {
		ran = true
		for _, fam := range []struct {
			name string
			run  func(bench.Preset) (*bench.WorkloadResult, error)
		}{
			{"workload-entropy", bench.RunWorkloadEntropy},
			{"workload-tenant", bench.RunWorkloadTenant},
		} {
			r, err := fam.run(p)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, r.Table())
			if err := writeCSV(fam.name+".csv", r.CSV()); err != nil {
				return err
			}
		}
	}
	if !ran {
		return fmt.Errorf("unknown figure %q (want all, 1, 5a, 5b, 5c, 6, 7, 8, baselines, ablations, workloads)", fig)
	}
	return nil
}
