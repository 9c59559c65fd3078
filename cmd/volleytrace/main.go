// Command volleytrace generates the synthetic workload traces used by the
// Volley reproduction and prints summary statistics (and optionally a CSV
// dump), so the workloads can be inspected and reused outside the bench
// harness.
//
// Usage:
//
//	volleytrace [-kind netflow|sysmetrics|httplog] [-steps N] [-seed N]
//	            [-csv file]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"volley/internal/bench"
	"volley/internal/stats"
	"volley/internal/trace"
)

func main() {
	var (
		kind  = flag.String("kind", "netflow", "trace kind: netflow, sysmetrics or httplog")
		steps = flag.Int("steps", 5000, "trace length in windows/steps")
		seed  = flag.Int64("seed", 1, "generator seed")
		csv   = flag.String("csv", "", "optional path to dump the series as CSV")
	)
	flag.Parse()

	if err := run(*kind, *steps, *seed, *csv); err != nil {
		fmt.Fprintln(os.Stderr, "volleytrace:", err)
		os.Exit(1)
	}
}

func run(kind string, steps int, seed int64, csvPath string) error {
	var (
		names  []string
		series [][]float64
		err    error
	)
	switch strings.ToLower(kind) {
	case "netflow":
		w, genErr := bench.GenNetwork(2, 5, steps, 300, seed)
		if genErr != nil {
			return genErr
		}
		series = w.Rho
		for vm := range series {
			names = append(names, fmt.Sprintf("vm%d.rho", vm))
		}
	case "sysmetrics":
		for _, stream := range trace.StandardMetrics(seed)[:6] {
			s := make([]float64, steps)
			for i := range s {
				s[i] = stream.Next()
			}
			names = append(names, stream.Name())
			series = append(series, s)
		}
	case "httplog":
		gen, genErr := trace.NewAccessGen(trace.DefaultAccessConfig(50, seed))
		if genErr != nil {
			return genErr
		}
		series = make([][]float64, 4)
		for i := range series {
			series[i] = make([]float64, steps)
		}
		names = []string{"total.rps", "obj0.rps", "obj1.rps", "obj2.rps"}
		for s := 0; s < steps; s++ {
			counts := gen.NextWindow()
			total := 0
			for _, c := range counts {
				total += c
			}
			series[0][s] = float64(total)
			for obj := 0; obj < 3; obj++ {
				series[obj+1][s] = float64(counts[obj])
			}
		}
	default:
		return fmt.Errorf("unknown kind %q (want netflow, sysmetrics or httplog)", kind)
	}

	t := bench.NewTable(
		fmt.Sprintf("volleytrace: %s, %d steps, seed %d", kind, steps, seed),
		"series", "min", "p50", "p99", "max", "mean |δ|")
	for i, s := range series {
		sorted := append([]float64(nil), s...)
		sort.Float64s(sorted)
		var sumAbs float64
		for j := 1; j < len(s); j++ {
			d := s[j] - s[j-1]
			if d < 0 {
				d = -d
			}
			sumAbs += d
		}
		t.AddRow(names[i],
			sorted[0],
			stats.QuantileSorted(sorted, 0.5),
			stats.QuantileSorted(sorted, 0.99),
			sorted[len(sorted)-1],
			sumAbs/float64(len(s)))
	}
	fmt.Println(t.String())

	if csvPath != "" {
		if err = writeCSV(csvPath, names, series); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d columns × %d rows)\n", csvPath, len(series), steps)
	}
	return nil
}

func writeCSV(path string, names []string, series [][]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("step," + strings.Join(names, ",") + "\n")
	steps := 0
	if len(series) > 0 {
		steps = len(series[0])
	}
	var num []byte
	for s := 0; s < steps; s++ {
		num = strconv.AppendInt(num[:0], int64(s), 10)
		for _, col := range series {
			num = append(num, ',')
			num = strconv.AppendFloat(num, col[s], 'g', -1, 64)
		}
		num = append(num, '\n')
		w.Write(num)
	}
	// A bufio.Writer keeps its first error and returns it from Flush.
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
