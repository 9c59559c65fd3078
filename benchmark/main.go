// Command benchmark is the repository's end-to-end benchmark: it runs the
// unmodified volleyd as child processes, drives them only through what an
// operator has, and prints every metric by name. See README.md.
//
//	bash benchmark/run.sh                          # all four workloads
//	bash benchmark/run.sh -workload ddos-http      # one, driver output on the last line
//	bash benchmark/run.sh -trace 1                 # per-layer budget
//	bash benchmark/run.sh -repeat 10 -out new.json # medians and quartiles
//	bash benchmark/run.sh -compare old.json new.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	var (
		bin      = flag.String("volleyd", "", "path of the volleyd binary under test (benchmark/run.sh builds and passes it)")
		name     = flag.String("workload", "", "run only this workload and print the driver's JSON result as the last line (default: all)")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the live counters and the traced replay")
		repeat   = flag.Int("repeat", 1, "run the chosen workloads this many times and print median and quartiles per metric")
		out      = flag.String("out", "", "write every run's result as JSON to this file (the input of -compare)")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the replay's spans as JSON to this file")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments: old.json new.json")
	)
	flag.Parse()

	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files: old.json new.json"))
		}
		worse, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *bin == "" {
		fatal(fmt.Errorf("no -volleyd binary; run the benchmark through benchmark/run.sh, which builds it"))
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	chosen := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		chosen = []workload{w}
	}

	// Children live in their own process groups, so a signal to the harness
	// does not reach them: it cancels the run, whose exit paths kill them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	file := resultFile{Host: readHostInfo(), Seconds: *seconds}
	for rep := 0; rep < *repeat; rep++ {
		// Alternate the order between repetitions so no workload always
		// runs on a machine warmed by the same predecessor.
		order := append([]workload(nil), chosen...)
		if rep%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			run, err := runOnce(ctx, w, runConfig{
				bin: *bin, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
				trace: *trace == 1, traceOut: *traceOut,
			})
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			file.Runs = append(file.Runs, run)
			printRun(os.Stdout, spec, run)
		}
	}
	if *repeat > 1 {
		printSpread(os.Stdout, spec, file.Runs)
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if *name != "" && *repeat == 1 {
		line, err := driverLine(spec, file.Runs[0], *trace == 1)
		if err != nil {
			fatal(err)
		}
		fmt.Println(line)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
