package bench

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := NewTable("demo", "a", "bb")
	tab.AddRow("x", 1.5)
	tab.AddRow("longer", math.NaN())
	out := tab.String()
	for _, want := range []string{"demo", "a", "bb", "x", "1.5000", "longer", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestTableFloatFormats(t *testing.T) {
	tests := []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{12345, "12345"},
		{42.5, "42.50"},
		{0.123456, "0.1235"},
	}
	for _, tt := range tests {
		if got := formatFloat(tt.v); got != tt.want {
			t.Errorf("formatFloat(%v) = %q, want %q", tt.v, got, tt.want)
		}
	}
}

func TestReplaySeriesValidation(t *testing.T) {
	if _, err := ReplaySeries(nil, ReplayConfig{Err: 0.01, MaxInterval: 5}); err == nil {
		t.Error("empty series accepted, want error")
	}
	if _, err := ReplaySeries([]float64{1}, ReplayConfig{Err: 2, MaxInterval: 5}); err == nil {
		t.Error("invalid sampler config accepted, want error")
	}
}

func TestReplaySeriesPeriodicalAtZeroErr(t *testing.T) {
	series := make([]float64, 500)
	r, err := ReplaySeries(series, ReplayConfig{Threshold: 1, Err: 0, MaxInterval: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.Ratio != 1 {
		t.Errorf("err=0 ratio = %v, want 1", r.Ratio)
	}
	if r.Samples != 500 {
		t.Errorf("Samples = %d, want 500", r.Samples)
	}
}

func TestReplaySeriesSavesOnQuietSignal(t *testing.T) {
	series := make([]float64, 2000)
	for i := range series {
		series[i] = 1
	}
	r, err := ReplaySeries(series, ReplayConfig{Threshold: 1000, Err: 0.05, MaxInterval: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.Ratio > 0.5 {
		t.Errorf("ratio = %v on constant quiet signal, want substantial savings", r.Ratio)
	}
	if r.Alerts != 0 {
		t.Errorf("Alerts = %d, want 0", r.Alerts)
	}
	if !math.IsNaN(r.Misdetect) {
		t.Errorf("Misdetect = %v, want NaN without alerts", r.Misdetect)
	}
}

func TestReplaySeriesMaskMatchesSamples(t *testing.T) {
	series := make([]float64, 300)
	r, err := ReplaySeries(series, ReplayConfig{
		Threshold: 10, Err: 0.05, MaxInterval: 5, KeepMask: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, s := range r.Sampled {
		if s {
			count++
		}
	}
	if count != r.Samples {
		t.Errorf("mask has %d sampled steps, Samples = %d", count, r.Samples)
	}
	if !r.Sampled[0] {
		t.Error("first step must always be sampled")
	}
}

func TestReplayManyPools(t *testing.T) {
	series := [][]float64{make([]float64, 400), make([]float64, 400)}
	for i := range series[0] {
		series[0][i] = float64(i % 100)
		series[1][i] = float64((i * 7) % 100)
	}
	r, err := ReplayMany(series, 5, ReplayConfig{Err: 0.01, MaxInterval: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.Variables != 2 {
		t.Errorf("Variables = %d, want 2", r.Variables)
	}
	if r.Ratio <= 0 || r.Ratio > 1 {
		t.Errorf("Ratio = %v, want in (0, 1]", r.Ratio)
	}
	if r.Alerts == 0 {
		t.Error("no alerts pooled; 5%% selectivity should alert")
	}
}

func TestReplayManyValidation(t *testing.T) {
	if _, err := ReplayMany(nil, 1, ReplayConfig{Err: 0.01, MaxInterval: 5}); err == nil {
		t.Error("no series accepted, want error")
	}
	series := [][]float64{{1, 1, 1}}
	if _, err := ReplayMany(series, 0, ReplayConfig{Err: 0.01, MaxInterval: 5}); err == nil {
		t.Error("selectivity 0 accepted, want error")
	}
}

func TestGenNetworkShape(t *testing.T) {
	w, err := GenNetwork(2, 3, 100, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumVMs() != 6 {
		t.Errorf("NumVMs() = %d, want 6", w.NumVMs())
	}
	if w.Windows() != 100 {
		t.Errorf("Windows() = %d, want 100", w.Windows())
	}
	if w.ServerOf(5) != 1 {
		t.Errorf("ServerOf(5) = %d, want 1", w.ServerOf(5))
	}
	if w.MeanServerPackets() <= 0 {
		t.Error("MeanServerPackets() = 0, want traffic")
	}
	if _, err := GenNetwork(2, 3, 0, 200, 1); err == nil {
		t.Error("0 windows accepted, want error")
	}
}

func TestGenSystemShape(t *testing.T) {
	series, err := GenSystem(3, 2, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 6 {
		t.Fatalf("got %d series, want 6", len(series))
	}
	for i, s := range series {
		if len(s) != 50 {
			t.Errorf("series %d has %d steps, want 50", i, len(s))
		}
	}
	if _, err := GenSystem(3, 0, 50, 1); err == nil {
		t.Error("0 metrics accepted, want error")
	}
	if _, err := GenSystem(3, 2, 0, 1); err == nil {
		t.Error("0 steps accepted, want error")
	}
	if _, err := GenSystem(0, 2, 50, 1); err == nil {
		t.Error("0 nodes accepted, want error")
	}
}

func TestGenAppShape(t *testing.T) {
	series, err := GenApp(2, 10, 2, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 6 { // (1 total + 2 objects) × 2 servers
		t.Fatalf("got %d series, want 6", len(series))
	}
	// A server's total counts every object, so it bounds its top objects'.
	for sv := 0; sv < 2; sv++ {
		total, obj0, obj1 := series[3*sv], series[3*sv+1], series[3*sv+2]
		for i := range total {
			if obj0[i] < 0 || obj1[i] < 0 || obj0[i]+obj1[i] > total[i] {
				t.Fatalf("server %d step %d: objects %v + %v, total %v", sv, i, obj0[i], obj1[i], total[i])
			}
		}
	}
	if _, err := GenApp(2, 10, 10, 60, 1); err == nil {
		t.Error("topObjects = objects accepted, want error")
	}
}

func TestRunSweepGridShape(t *testing.T) {
	p := Quick()
	series, err := GenSystem(2, 1, 1500, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := RunSweep("test", series, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cells) != len(p.Ks) {
		t.Fatalf("got %d k-rows, want %d", len(s.Cells), len(p.Ks))
	}
	for ki := range s.Cells {
		if len(s.Cells[ki]) != len(p.Errs) {
			t.Fatalf("row %d has %d cells, want %d", ki, len(s.Cells[ki]), len(p.Errs))
		}
	}
	out := s.RatioTable()
	if !strings.Contains(out, "err=0.002") {
		t.Errorf("ratio table missing header:\n%s", out)
	}
	if !strings.Contains(s.MisdetectTable(), "mis-detection") {
		t.Error("misdetect table missing title")
	}
}

// TestFig5ShapeClaims verifies the paper's qualitative claims on the quick
// preset: savings grow with err, savings grow as selectivity k shrinks, and
// there are meaningful savings at all.
func TestFig5ShapeClaims(t *testing.T) {
	p := Quick()
	s, err := RunFig5a(p)
	if err != nil {
		t.Fatal(err)
	}
	// Monotonicity along err for each k: ratio should not increase much
	// (noise tolerance 0.05).
	for ki := range s.Cells {
		for ei := 1; ei < len(s.Errs); ei++ {
			if s.Cells[ki][ei].Ratio > s.Cells[ki][ei-1].Ratio+0.05 {
				t.Errorf("k=%v: ratio rose from %.3f (err=%v) to %.3f (err=%v)",
					s.Ks[ki], s.Cells[ki][ei-1].Ratio, s.Errs[ei-1],
					s.Cells[ki][ei].Ratio, s.Errs[ei])
			}
		}
	}
	// Smaller k (rarer alerts, higher thresholds) should save at least as
	// much at the largest allowance.
	last := len(s.Errs) - 1
	if s.Cells[len(s.Ks)-1][last].Ratio > s.Cells[0][last].Ratio+0.05 {
		t.Errorf("smallest k ratio %.3f above largest k ratio %.3f",
			s.Cells[len(s.Ks)-1][last].Ratio, s.Cells[0][last].Ratio)
	}
	if s.MaxSaving() < 0.3 {
		t.Errorf("MaxSaving() = %.3f, want ≥ 0.3 on the network workload", s.MaxSaving())
	}
}

func TestFig7AccuracyNearAllowance(t *testing.T) {
	p := Quick()
	series, err := GenSystem(p.SysNodes, p.SysMetricsPerNode, p.SysSteps, p.Seed+100)
	if err != nil {
		t.Fatal(err)
	}
	s, err := RunSweep("fig7-system-accuracy", series, p)
	if err != nil {
		t.Fatal(err)
	}
	// Pooled mis-detection should be within a small multiple of the
	// allowance (the paper reports it below the allowance in most cells).
	// Cells with few pooled alerts get an absolute slack of a handful of
	// misses, since a single miss there swings the rate by several percent.
	for ki := range s.Cells {
		for ei, errAllow := range s.Errs {
			cell := s.Cells[ki][ei]
			if cell.Alerts == 0 {
				continue
			}
			allowedMisses := 3*errAllow*float64(cell.Alerts) + 3
			if float64(cell.Missed) > allowedMisses {
				t.Errorf("k=%v err=%v: %d of %d alerts missed (rate %.4f), want ≤ %.1f misses",
					s.Ks[ki], errAllow, cell.Missed, cell.Alerts, cell.Misdetect, allowedMisses)
			}
		}
	}
}

func TestFig6CPUFallsWithAllowance(t *testing.T) {
	p := Quick()
	f, err := RunFig6(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Boxes) != len(p.Errs)+1 {
		t.Fatalf("got %d boxes, want %d", len(f.Boxes), len(p.Errs)+1)
	}
	periodical, largest := f.BaselineMedian()
	if periodical <= largest {
		t.Errorf("median CPU did not fall: err=0 %.2f%%, largest err %.2f%%", periodical, largest)
	}
	// The model is calibrated to the paper's ≈27% full-rate midpoint; the
	// workload's mean should land near it at err=0.
	if f.Boxes[0].Mean < 15 || f.Boxes[0].Mean > 40 {
		t.Errorf("periodical mean CPU %.2f%% outside the calibrated 20-34%% band's vicinity", f.Boxes[0].Mean)
	}
	if !strings.Contains(f.Table(), "Dom0 CPU") {
		t.Error("table missing title")
	}
}

func TestFig8AdaptBeatsEvenUnderSkew(t *testing.T) {
	p := Quick()
	f, err := RunFig8(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.AdaptRatio) != len(p.Fig8Skews) {
		t.Fatalf("got %d ratios, want %d", len(f.AdaptRatio), len(p.Fig8Skews))
	}
	for i, s := range f.Skews {
		if f.AdaptRatio[i] <= 0 || f.AdaptRatio[i] > 1.2 {
			t.Errorf("skew %v: adapt ratio %v out of range", s, f.AdaptRatio[i])
		}
		if f.EvenRatio[i] <= 0 || f.EvenRatio[i] > 1.2 {
			t.Errorf("skew %v: even ratio %v out of range", s, f.EvenRatio[i])
		}
	}
	// At the highest skew the adaptive scheme must not lose to even by a
	// meaningful margin (the paper shows it winning).
	lastIdx := len(f.Skews) - 1
	if f.AdaptRatio[lastIdx] > f.EvenRatio[lastIdx]+0.02 {
		t.Errorf("at skew %v adapt %.4f worse than even %.4f",
			f.Skews[lastIdx], f.AdaptRatio[lastIdx], f.EvenRatio[lastIdx])
	}
	if !strings.Contains(f.Table(), "zipf skew") {
		t.Error("table missing header")
	}
}

func TestFig1SchemesOrdering(t *testing.T) {
	p := Quick()
	f, err := RunFig1(p)
	if err != nil {
		t.Fatal(err)
	}
	if f.Alerts == 0 {
		t.Fatal("fig1 trace has no alerts; cannot demonstrate the motivating example")
	}
	if f.SchemeCSamples >= f.SchemeASamples {
		t.Errorf("Volley used %d samples, scheme A %d — no savings", f.SchemeCSamples, f.SchemeASamples)
	}
	// Volley must miss a smaller fraction than coarse periodical sampling
	// misses, while sampling less than scheme A.
	missC := float64(f.SchemeCMissed) / float64(f.Alerts)
	missB := float64(f.SchemeBMissed) / float64(f.Alerts)
	if missC > missB {
		t.Errorf("Volley missed %.3f of alerts, coarse periodical %.3f", missC, missB)
	}
	if !strings.Contains(f.Table(), "motivating example") {
		t.Error("table missing title")
	}
}

func TestAblationsRun(t *testing.T) {
	p := Quick()
	type runner func(Preset) (*AblationResult, error)
	tests := []struct {
		name string
		run  runner
	}{
		{name: "slack", run: RunAblationSlack},
		{name: "estimator", run: RunAblationEstimator},
		{name: "growth", run: RunAblationGrowth},
		{name: "stats window", run: RunAblationStatsWindow},
		{name: "coord period", run: RunAblationCoordPeriod},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r, err := tt.run(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Rows) < 2 {
				t.Fatalf("ablation has %d rows, want ≥ 2", len(r.Rows))
			}
			for _, row := range r.Rows {
				if row.Ratio <= 0 || row.Ratio > 1.2 {
					t.Errorf("%s: ratio %v out of range", row.Label, row.Ratio)
				}
			}
			if !strings.Contains(r.Table(), "ablation") {
				t.Error("table missing title")
			}
		})
	}
}

func TestAblationEstimatorGaussianCheaperButRiskier(t *testing.T) {
	p := Quick()
	r, err := RunAblationEstimator(p)
	if err != nil {
		t.Fatal(err)
	}
	cheb, gauss := r.Rows[0], r.Rows[1]
	if gauss.Ratio > cheb.Ratio+0.02 {
		t.Errorf("gaussian ratio %.4f not cheaper than chebyshev %.4f", gauss.Ratio, cheb.Ratio)
	}
}

func TestPresetsSane(t *testing.T) {
	for _, p := range []Preset{Quick(), Full()} {
		if p.NetServers < 1 || p.NetWindows < 1 || len(p.Errs) == 0 || len(p.Ks) == 0 {
			t.Errorf("preset %+v malformed", p)
		}
		if p.MaxInterval < 2 {
			t.Errorf("preset max interval %d too small", p.MaxInterval)
		}
	}
}
