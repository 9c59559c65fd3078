package main

import (
	"fmt"
	"os"

	"volley/internal/bench"
)

// workloadPointJSON is one sweep cell of a family's savings/misdetection
// curve. Misdetect and EpisodeDetect are pointers because a cell with no
// ground-truth alerts pools to NaN, which encoding/json cannot represent —
// such fields are omitted.
type workloadPointJSON struct {
	Label         string   `json:"label"`
	Param         float64  `json:"param"`
	Ratio         float64  `json:"ratio"`
	Misdetect     *float64 `json:"misdetect,omitempty"`
	EpisodeDetect *float64 `json:"episode_detect,omitempty"`
}

// workloadGatingJSON mirrors bench.WorkloadGating (tenant family only).
type workloadGatingJSON struct {
	MinRecall       float64  `json:"min_recall"`
	Rules           int      `json:"rules"`
	GatedTasks      int      `json:"gated_tasks"`
	RelaxedInterval int      `json:"relaxed_interval"`
	HoldDown        int      `json:"hold_down"`
	UngatedCost     float64  `json:"ungated_cost"`
	GatedCost       float64  `json:"gated_cost"`
	Savings         float64  `json:"savings"`
	Recall          *float64 `json:"recall,omitempty"`
	UngatedRecall   *float64 `json:"ungated_recall,omitempty"`
}

// workloadFamilyJSON is one family's end-to-end evaluation.
type workloadFamilyJSON struct {
	Family              string              `json:"family"`
	Signal              string              `json:"signal"`
	Monitors            int                 `json:"monitors"`
	Windows             int                 `json:"windows"`
	Volley              []workloadPointJSON `json:"volley"`
	Baseline            []workloadPointJSON `json:"baseline"`
	Advantage           []float64           `json:"advantage"`
	VolleyBeatsBaseline bool                `json:"volley_beats_baseline"`
	Gating              *workloadGatingJSON `json:"gating,omitempty"`
}

// workloadReport is the schema of BENCH_workloads.json: the two workload
// families' savings-vs-misdetection curves plus the correlation-gated
// tenant run. Like BENCH_quick.json it holds nothing that depends on the
// host or the worker count.
type workloadReport struct {
	Preset   string               `json:"preset"`
	Families []workloadFamilyJSON `json:"families"`
}

func workloadPointsJSON(points []bench.WorkloadPoint) []workloadPointJSON {
	out := make([]workloadPointJSON, len(points))
	for i, pt := range points {
		out[i] = workloadPointJSON{
			Label:         pt.Label,
			Param:         pt.Param,
			Ratio:         pt.Ratio,
			Misdetect:     finite(pt.Misdetect),
			EpisodeDetect: finite(pt.EpisodeDetect),
		}
	}
	return out
}

func workloadFamilyJSONOf(r *bench.WorkloadResult) workloadFamilyJSON {
	f := workloadFamilyJSON{
		Family:              r.Family,
		Signal:              r.Signal,
		Monitors:            r.Monitors,
		Windows:             r.Windows,
		Volley:              workloadPointsJSON(r.Volley),
		Baseline:            workloadPointsJSON(r.Baseline),
		Advantage:           r.Advantage,
		VolleyBeatsBaseline: r.VolleyBeatsBaseline,
	}
	if g := r.Gating; g != nil {
		f.Gating = &workloadGatingJSON{
			MinRecall:       g.MinRecall,
			Rules:           g.Rules,
			GatedTasks:      g.GatedTasks,
			RelaxedInterval: g.RelaxedInterval,
			HoldDown:        g.HoldDown,
			UngatedCost:     g.UngatedCost,
			GatedCost:       g.GatedCost,
			Savings:         g.Savings,
			Recall:          finite(g.Recall),
			UngatedRecall:   finite(g.UngatedRecall),
		}
	}
	return f
}

// writeWorkloadBenchJSON runs both workload families end to end under
// preset p and writes their savings/misdetection curves to path.
func writeWorkloadBenchJSON(p bench.Preset, presetName, path string, out *os.File) error {
	report := workloadReport{Preset: presetName}
	for _, fam := range []struct {
		name string
		run  func(bench.Preset) (*bench.WorkloadResult, error)
	}{
		{"entropy-flow", bench.RunWorkloadEntropy},
		{"tenant-colo", bench.RunWorkloadTenant},
	} {
		r, err := fam.run(p)
		if err != nil {
			return fmt.Errorf("%s: %w", fam.name, err)
		}
		fmt.Fprint(out, r.Table())
		report.Families = append(report.Families, workloadFamilyJSONOf(r))
	}
	if err := writeJSONFile(path, report); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %d families to %s\n", len(report.Families), path)
	return nil
}
