package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// benchSpec is BENCHMARK.json: the contract between this harness and
// whoever runs it. The harness reads the metric lists, directions and
// bounds from it rather than keeping a second copy.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specNamed  `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specNamed struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read the benchmark contract: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Host    hostInfo    `json:"host"`
	Seconds int         `json:"seconds"`
	Runs    []runResult `json:"runs"`
}

type runConfig struct {
	bin      string
	seed     int64
	seconds  time.Duration
	trace    bool
	traceOut string
}

// warmup is how long a fresh deployment runs before the measured window:
// long enough for every sampler to leave its initial interval and for the
// gated tasks to relax.
const warmup = 3 * time.Second

// runOnce runs one workload once. An untraced run spends all its seconds on
// the live window and reports the end-to-end metrics with the live
// counters; a traced run splits them between a shorter live window, which
// the layer budget needs as its total, and the in-process traced replay.
// The traced run's daemons get one processor whatever the workload says: the
// budget is that of the single goroutine that runs the tick loop, and its
// throughput is the single-threaded baseline.
func runOnce(ctx context.Context, w workload, cfg runConfig) (runResult, error) {
	live := liveConfig{bin: cfg.bin, seed: cfg.seed, warm: warmup, window: cfg.seconds, setups: 3, timeout: 150 * time.Second}
	if cfg.trace {
		live.window = cfg.seconds / 2
		live.setups = 1
		live.procs = 1
	}
	res, err := runLive(ctx, w, live)
	if err != nil {
		return runResult{}, err
	}
	if cfg.trace {
		res.layer["volleyd.monitor_ticks_per_s_1p"] = res.layer["volleyd.monitor_ticks_per_s"]
		if err := runTraced(ctx, w, cfg, res); err != nil {
			return runResult{}, err
		}
	}
	return runResult{
		Workload: w.name, Seed: cfg.seed, Traced: cfg.trace,
		Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed, Problems: res.problems,
		EndToEnd: res.e2e, PerLayer: res.layer,
	}, nil
}

// driverLine is the single JSON object the benchmark driver reads: exactly
// the metrics BENCHMARK.json lists for the mode, each as measured.
func driverLine(spec *benchSpec, run runResult, traced bool) (string, error) {
	list, have := spec.EndToEnd, run.EndToEnd
	if traced {
		list, have = spec.PerLayer, run.PerLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(list))
	for _, m := range list {
		got, ok := have[m.Name]
		if !ok {
			return "", fmt.Errorf("%s did not produce %s, which BENCHMARK.json lists", run.Workload, m.Name)
		}
		metrics[m.Name] = mv{got.Value, m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": run.Correct, "attempted": run.Attempted, "failed": run.Failed, "metrics": metrics,
	})
	return string(line), err
}

// printRun prints every metric of a run by name, with unit, sample count
// and, for the gated ones, direction and regression bound.
func printRun(w io.Writer, spec *benchSpec, run runResult) {
	fmt.Fprintf(w, "\n== %s  seed=%d  correct=%v  attempted=%d  failed=%d  failed_op_share=%.6f\n",
		run.Workload, run.Seed, run.Correct, run.Attempted, run.Failed, float64(run.Failed)/float64(run.Attempted))
	for _, p := range run.Problems {
		fmt.Fprintf(w, "   FAILED CHECK: %s\n", p)
	}
	fmt.Fprintf(w, "   %-42s %14s %-6s %8s  %s\n", "end-to-end metric", "value", "unit", "n", "gate")
	for _, m := range spec.EndToEnd {
		if got, ok := run.EndToEnd[m.Name]; ok {
			fmt.Fprintf(w, "   %-42s %14.6g %-6s %8d  %s is better, may worsen %.0f%%\n", m.Name, got.Value, got.Unit, got.N, m.Better, 100*m.Bound)
		}
	}
	fmt.Fprintf(w, "   %-42s %14s %-6s %8s\n", "per-layer metric", "value", "unit", "n")
	for _, name := range sortedKeys(run.PerLayer) {
		got := run.PerLayer[name]
		fmt.Fprintf(w, "   %-42s %14.6g %-6s %8d\n", name, got.Value, got.Unit, got.N)
	}
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// spread summarises the values a metric took over repeated runs.
type spread struct {
	q1, med, q3 float64
	min, max    float64
	n           int
}

// rel is the interquartile distance as a share of the median: the figure a
// metric's bound is calibrated against.
func (s spread) rel() float64 {
	if s.med == 0 {
		return 0
	}
	return (s.q3 - s.q1) / math.Abs(s.med)
}

// quartiles follows Python's statistics.quantiles(values, n=4), the
// exclusive method, so the spreads printed here are the ones the acceptance
// check computes.
func quartiles(values []float64) spread {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	out := spread{n: len(s)}
	if len(s) == 0 {
		return out
	}
	out.min, out.max = s[0], s[len(s)-1]
	at := func(i int) float64 {
		if len(s) == 1 {
			return s[0]
		}
		// Python: position i*(n+1)/4, 1-based, clamped to [1, n-1].
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	out.q1, out.med, out.q3 = at(1), median(s), at(3)
	return out
}

// collect gathers, per workload, the values each metric took over the runs.
func collect(runs []runResult, pick func(runResult) map[string]metric) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, r := range runs {
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, m := range pick(r) {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

func endToEnd(r runResult) map[string]metric { return r.EndToEnd }
func perLayer(r runResult) map[string]metric { return r.PerLayer }

// printSpread prints median and quartiles per metric over repeated runs, and
// flags every gated metric whose spread is not under a third of its bound.
func printSpread(w io.Writer, spec *benchSpec, runs []runResult) {
	e2e, layers := collect(runs, endToEnd), collect(runs, perLayer)
	for _, wl := range spec.Workloads {
		if e2e[wl.Name] == nil {
			continue
		}
		fmt.Fprintf(w, "\n== %s over %d runs\n", wl.Name, len(e2e[wl.Name][spec.EndToEnd[0].Name]))
		fmt.Fprintf(w, "   %-42s %12s %12s %12s %8s %7s\n", "metric", "q1", "median", "q3", "iqr/med", "bound")
		for _, m := range spec.EndToEnd {
			s := quartiles(e2e[wl.Name][m.Name])
			note := ""
			if s.rel() > m.Bound/3 && m.Name != "setup_s" {
				note = "  spread above a third of the bound"
			}
			fmt.Fprintf(w, "   %-42s %12.6g %12.6g %12.6g %7.1f%% %6.0f%%%s\n", m.Name, s.q1, s.med, s.q3, 100*s.rel(), 100*m.Bound, note)
		}
		names := make([]string, 0, len(layers[wl.Name]))
		for name := range layers[wl.Name] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s := quartiles(layers[wl.Name][name])
			fmt.Fprintf(w, "   %-42s %12.6g %12.6g %12.6g %7.1f%%\n", name, s.q1, s.med, s.q3, 100*s.rel())
		}
	}
}

// verdict classifies one (workload, metric) pair of a comparison.
//
//   - WORSE: the new median is worse than the old by more than the bound.
//   - unresolved: either side's spread is wider than the bound, so a move of
//     the bound's size cannot be told from noise — unless every new run
//     beats every old run.
//   - better: every new run beats every old run, or the new median is
//     better by more than the old runs' own spread.
//   - same: anything else.
func verdict(m specMetric, old, new spread) string {
	if old.n == 0 || new.n == 0 {
		return "missing"
	}
	sign := 1.0 // positive change = worse
	if m.Better == "higher" {
		sign = -1
	}
	change := sign * (new.med - old.med)
	allBetter := sign*(new.max-old.min) < 0 && sign*(new.min-old.max) < 0
	switch {
	case allBetter && old.n+new.n > 2:
		return "better"
	case old.rel() > m.Bound || new.rel() > m.Bound:
		return "unresolved"
	case change > m.Bound*math.Abs(old.med):
		return "WORSE"
	case -change > (old.q3-old.q1) && -change > 0.01*math.Abs(old.med):
		return "better"
	default:
		return "same"
	}
}

// compareFiles prints one row per (workload, end-to-end metric) with both
// medians, the bound and a verdict. It reports whether anything got worse:
// a WORSE verdict, or a higher share of failed operations.
func compareFiles(w io.Writer, spec *benchSpec, oldPath, newPath string) (worse bool, err error) {
	load := func(path string) (resultFile, error) {
		var f resultFile
		data, err := os.ReadFile(path)
		if err != nil {
			return f, err
		}
		if err := json.Unmarshal(data, &f); err != nil {
			return f, fmt.Errorf("%s: %w", path, err)
		}
		return f, nil
	}
	oldF, err := load(oldPath)
	if err != nil {
		return false, err
	}
	newF, err := load(newPath)
	if err != nil {
		return false, err
	}
	oldV, newV := collect(oldF.Runs, endToEnd), collect(newF.Runs, endToEnd)
	failedShare := func(runs []runResult, workload string) float64 {
		var failed, attempted float64
		for _, r := range runs {
			if r.Workload == workload {
				failed += float64(r.Failed)
				attempted += float64(r.Attempted)
			}
		}
		if attempted == 0 {
			return 0
		}
		return failed / attempted
	}
	fmt.Fprintf(w, "%-18s %-26s %13s %13s %6s  %s\n", "workload", "metric", "old median", "new median", "bound", "verdict")
	for _, wl := range spec.Workloads {
		if oldV[wl.Name] == nil && newV[wl.Name] == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			o, n := quartiles(oldV[wl.Name][m.Name]), quartiles(newV[wl.Name][m.Name])
			v := verdict(m, o, n)
			worse = worse || v == "WORSE"
			fmt.Fprintf(w, "%-18s %-26s %13.6g %13.6g %5.0f%%  %s\n", wl.Name, m.Name, o.med, n.med, 100*m.Bound, v)
		}
		of, nf := failedShare(oldF.Runs, wl.Name), failedShare(newF.Runs, wl.Name)
		v := "same"
		if nf > of {
			v, worse = "WORSE", true
		}
		fmt.Fprintf(w, "%-18s %-26s %13.6g %13.6g %6s  %s\n", wl.Name, "failed_op_share", of, nf, "0", v)
	}
	return worse, nil
}
