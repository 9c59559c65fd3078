// Command volleybench regenerates the evaluation figures of the Volley
// paper (ICDCS 2013) as text tables: the motivating example (Fig. 1), the
// overhead-saving sweeps (Fig. 5a–c), the Dom0 CPU distribution (Fig. 6),
// the accuracy grid (Fig. 7), the distributed-coordination comparison
// (Fig. 8), an equal-budget baseline comparison, and the ablations listed
// in DESIGN.md §6.
//
// Usage:
//
//	volleybench [-fig all|1|5a|5b|5c|6|7|8|baselines|ablations|workloads]
//	            [-preset full|quick] [-procs N] [-csv dir]
//	            [-json file] [-workloadjson file]
//
// -procs sizes the experiment engine's worker pool (0 = all cores, 1 =
// fully serial); the figures are bit-identical for every value. -json
// runs the figure suite once and writes its headline metrics (sampling
// ratios, mis-detection rates) to the given file; -workloadjson does the
// same for the two workload families' savings-vs-misdetection curves and
// the correlation-gated tenant run. `make bench-json bench-workloads`
// regenerates the two committed contract files, BENCH_quick.json and
// BENCH_workloads.json, with them; both are pure functions of the source,
// and TestCommittedContractsRegenerate compares them byte for byte.
// Timings live in benchmark/ (BENCHMARK.json), not here.
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
	jsonPath := flag.String("json", "", "write headline metrics (sampling ratios, misdetect rates) as JSON to this file instead of printing tables")
	workloadJSONPath := flag.String("workloadjson", "", "run the workload families (entropy-flow, tenant-colo) end to end and write their savings-vs-misdetection curves and the correlation-gated tenant run as JSON to this file")
	flag.Parse()

	p, err := presetByName(*preset)
	if err != nil {
		fmt.Fprintln(os.Stderr, "volleybench:", err)
		os.Exit(1)
	}
	p.Procs = *procs

	start := time.Now()
	switch {
	case *workloadJSONPath != "":
		err = writeWorkloadBenchJSON(p, *preset, *workloadJSONPath, os.Stdout)
	case *jsonPath != "":
		err = writeBenchJSON(p, *preset, *jsonPath, os.Stdout)
	default:
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

// run is main without the process: one figure of one preset, tables to out
// and, with a csvDir, each figure's data beside them.
func run(fig, preset, csvDir string, out *os.File) error {
	p, err := presetByName(preset)
	if err != nil {
		return err
	}
	return runFigures(fig, p, csvWriter(csvDir), out)
}

func runFigures(fig string, p bench.Preset, writeCSV func(name, data string) error, out *os.File) error {
	want := func(name string) bool { return fig == "all" || fig == name }
	ran := false
	ablationIdx := 1

	// Fig. 5b and Fig. 7 are the cost and the accuracy view of one sweep of
	// the system workload (the paper shows system-level mis-detection rates;
	// network and application "results are similar"): run it once.
	var system *bench.SweepResult
	systemSweep := func() (*bench.SweepResult, error) {
		if system != nil {
			return system, nil
		}
		var err error
		system, err = bench.RunFig5b(p)
		return system, err
	}

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
		r, err := systemSweep()
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
		r, err := systemSweep()
		if err != nil {
			return err
		}
		accuracy := *r
		accuracy.Name = "fig7-system-accuracy"
		fmt.Fprintln(out, accuracy.MisdetectTable())
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
