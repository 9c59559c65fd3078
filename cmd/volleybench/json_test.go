package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"volley/internal/bench"
)

// contracts is the two contract files' bytes.
type contracts struct{ quick, workloads []byte }

// regenerated writes both contract files as this tree writes them on the
// quick preset, once per test binary.
var regenerated = sync.OnceValues(func() (c contracts, err error) {
	dir, err := os.MkdirTemp("", "volleybench")
	if err != nil {
		return c, err
	}
	defer os.RemoveAll(dir)
	out, err := os.Create(filepath.Join(dir, "stdout.txt"))
	if err != nil {
		return c, err
	}
	defer out.Close()
	p := bench.Quick()
	p.Procs = 2
	quickPath, workloadsPath := filepath.Join(dir, "quick.json"), filepath.Join(dir, "workloads.json")
	if err := writeBenchJSON(p, "quick", quickPath, out); err != nil {
		return c, err
	}
	if err := writeWorkloadBenchJSON(p, "quick", workloadsPath, out); err != nil {
		return c, err
	}
	if c.quick, err = os.ReadFile(quickPath); err != nil {
		return c, err
	}
	c.workloads, err = os.ReadFile(workloadsPath)
	return c, err
})

func regenerate(t *testing.T) contracts {
	t.Helper()
	c, err := regenerated()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCommittedContractsRegenerate holds BENCH_quick.json and
// BENCH_workloads.json to the source: both are pure functions of it (no
// clock, no host, no worker count), so what this tree writes must be the
// committed bytes. A change that moves a number has to commit the moved
// file (`make bench-json bench-workloads`), which puts the move in the diff
// and under TestWriteBenchJSON's and TestWriteWorkloadBenchJSON's gates.
func TestCommittedContractsRegenerate(t *testing.T) {
	files := regenerate(t)
	for _, f := range []struct {
		name string
		got  []byte
	}{
		{"BENCH_quick.json", files.quick},
		{"BENCH_workloads.json", files.workloads},
	} {
		committed, err := os.ReadFile(filepath.Join("..", "..", f.name))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(committed, f.got) {
			continue
		}
		t.Errorf("%s is stale: regenerate it with `make bench-json bench-workloads`", f.name)
		var was, now any
		if err := json.Unmarshal(committed, &was); err != nil {
			t.Fatalf("committed %s does not parse: %v", f.name, err)
		}
		if err := json.Unmarshal(f.got, &now); err != nil {
			t.Fatalf("regenerated %s does not parse: %v", f.name, err)
		}
		for _, cell := range movedCells("", was, now) {
			t.Log(cell)
		}
	}
}

// movedCells lists every leaf that differs between two decoded JSON
// documents as "path: old → new", in path order. Array elements that name
// themselves (figure, family, label) are matched and shown by that name,
// the others by index; a leaf on one side only reads as <nil> on the other.
func movedCells(path string, was, now any) []string {
	w, wok := children(was)
	n, nok := children(now)
	if !wok && !nok {
		if ws, ns := fmt.Sprint(was), fmt.Sprint(now); ws != ns {
			return []string{fmt.Sprintf("%s: %s → %s", path, ws, ns)}
		}
		return nil
	}
	keys := make([]string, 0, len(w)+len(n))
	for k := range w {
		keys = append(keys, k)
	}
	for k := range n {
		if _, both := w[k]; !both {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		out = append(out, movedCells(path+"/"+k, w[k], n[k])...)
	}
	return out
}

// children returns a decoded JSON object's fields, or an array's elements
// keyed by name; ok is false for a leaf.
func children(v any) (kids map[string]any, ok bool) {
	switch v := v.(type) {
	case map[string]any:
		return v, true
	case []any:
		kids = make(map[string]any, len(v))
		for i, e := range v {
			name := fmt.Sprintf("%03d", i)
			if m, ok := e.(map[string]any); ok {
				for _, key := range []string{"figure", "family", "label"} {
					if s, ok := m[key].(string); ok {
						name = s
						break
					}
				}
			}
			kids[name] = e
		}
		return kids, true
	}
	return nil, false
}

// TestWriteBenchJSON is the savings gate on the figure contract: on every
// figure Volley samples less than the periodical scheme it is compared with
// — a sweep on the mean over its cells, no cell of which samples more.
func TestWriteBenchJSON(t *testing.T) {
	var report benchReport
	if err := json.Unmarshal(regenerate(t).quick, &report); err != nil {
		t.Fatalf("BENCH json does not parse: %v", err)
	}
	if len(report.Figures) == 0 {
		t.Fatal("report has no figures")
	}
	for _, e := range report.Figures {
		ratio := e.SamplingRatio
		if e.Cells != nil {
			var sum float64
			for _, c := range e.Cells {
				if c.SamplingRatio == nil || *c.SamplingRatio <= 0 || *c.SamplingRatio > 1 {
					t.Errorf("%s: cell k=%v err=%v has sampling_ratio %v, want in (0, 1]", e.Figure, c.K, c.Err, c.SamplingRatio)
					continue
				}
				sum += *c.SamplingRatio
			}
			ratio = finite(sum / float64(len(e.Cells)))
		}
		if ratio == nil {
			t.Errorf("%s: sampling_ratio missing", e.Figure)
		} else if *ratio <= 0 || *ratio >= 1 {
			t.Errorf("%s: sampling_ratio = %v, want in (0, 1)", e.Figure, *ratio)
		}
	}
}

// overAllowance is every quick-preset sweep cell whose realized
// misdetection exceeds the allowance it ran with. Each names an accuracy
// miss the paper's guarantee does not allow (ROADMAP, "The accuracy
// guarantee, per cell and checked"); a fix removes its cells from here.
var overAllowance = []string{
	"fig5a k=0.8 err=0.002",
	"fig5a k=0.8 err=0.008",
	"fig5a k=0.8 err=0.032",
	"fig5a k=0.1 err=0.002",
	"fig5a k=0.1 err=0.008",
	"fig5a k=0.1 err=0.032",
	"fig5b k=0.8 err=0.008",
	"fig5b k=0.8 err=0.032",
	"fig5b k=0.1 err=0.008",
}

// TestOverAllowanceCellsDoNotGrow is the ratchet on the accuracy contract:
// no sweep cell of BENCH_quick.json may exceed its allowance unless it is on
// overAllowance. What it compares (DESIGN.md §3): err bounds a sampler's
// per-interval probability of missing a violation, and misdetect is the
// cell's missed alert steps over its alert steps, pooled over the series.
// The comparison is a ratchet and not a pass/fail on every cell, because
// some cells fail it today.
func TestOverAllowanceCellsDoNotGrow(t *testing.T) {
	var report benchReport
	if err := json.Unmarshal(regenerate(t).quick, &report); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, c := range overAllowance {
		known[c] = true
	}
	cells := 0
	for _, e := range report.Figures {
		for _, c := range e.Cells {
			cells++
			name := fmt.Sprintf("%s k=%v err=%v", e.Figure, c.K, c.Err)
			over := c.Misdetect != nil && *c.Misdetect > c.Err
			switch {
			case over && !known[name]:
				t.Errorf("%s: misdetection %v exceeds its allowance, and the cell is not on overAllowance", name, *c.Misdetect)
			case !over && known[name]:
				t.Logf("%s is within its allowance now: take it off overAllowance", name)
			}
		}
	}
	if cells == 0 {
		t.Fatal("BENCH_quick.json has no sweep cells")
	}
}

// TestWriteWorkloadBenchJSON is the savings and recall gate on the workload
// contract.
func TestWriteWorkloadBenchJSON(t *testing.T) {
	var report workloadReport
	if err := json.Unmarshal(regenerate(t).workloads, &report); err != nil {
		t.Fatalf("workload json does not parse: %v", err)
	}
	if len(report.Families) != 2 {
		t.Fatalf("report has %d families, want 2", len(report.Families))
	}

	// Volley dominates the uniform baseline at equal misdetection on every
	// point of the entropy curve.
	entropy := report.Families[0]
	if !entropy.VolleyBeatsBaseline {
		t.Error("entropy-flow: volley_beats_baseline = false")
	}
	if len(entropy.Advantage) == 0 {
		t.Error("entropy-flow: no advantage points")
	}
	for i, adv := range entropy.Advantage {
		if adv <= 0 {
			t.Errorf("entropy advantage[%d] = %v, want > 0", i, adv)
		}
	}

	// The gated tenant run saves samples and keeps its recall floor.
	tenant := report.Families[1]
	if tenant.Gating == nil {
		t.Fatal("tenant-colo: gating block missing")
	}
	if tenant.Gating.Savings <= 0 {
		t.Errorf("tenant gating savings = %v, want > 0", tenant.Gating.Savings)
	}
	if tenant.Gating.Recall == nil || *tenant.Gating.Recall < tenant.Gating.MinRecall {
		t.Errorf("tenant gating recall = %v, want >= min recall %v", tenant.Gating.Recall, tenant.Gating.MinRecall)
	}
}

func TestFiniteFiltersNaN(t *testing.T) {
	if finite(0.5) == nil || *finite(0.5) != 0.5 {
		t.Error("finite(0.5) should round-trip")
	}
	nan := 0.0
	nan /= nan
	if finite(nan) != nil {
		t.Error("finite(NaN) should be nil")
	}
}
