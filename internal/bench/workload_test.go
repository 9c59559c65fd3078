package bench

import (
	"math"
	"reflect"
	"testing"
)

// wloadPreset trims Quick to the workload-family axes used by these tests.
func wloadPreset() Preset {
	return Quick()
}

// TestRunWorkloadEntropyBeatsBaseline is the headline acceptance check of
// the entropy-of-flow family: at every point of the allowance sweep,
// Volley's adaptive schedule needs a smaller sampling ratio than the
// uniform-interval baseline interpolated at equal misdetection.
func TestRunWorkloadEntropyBeatsBaseline(t *testing.T) {
	p := wloadPreset()
	r, err := RunWorkloadEntropy(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Monitors != p.WloadEntropyNodes || r.Windows != p.WloadEntropyWindows {
		t.Fatalf("shape = %d×%d, want %d×%d", r.Monitors, r.Windows, p.WloadEntropyNodes, p.WloadEntropyWindows)
	}
	if len(r.Volley) != len(p.WloadErrs) || len(r.Baseline) != len(p.WloadIntervals) {
		t.Fatalf("curve lengths = %d/%d, want %d/%d", len(r.Volley), len(r.Baseline), len(p.WloadErrs), len(p.WloadIntervals))
	}
	for i, pt := range r.Volley {
		if pt.Ratio <= 0 || pt.Ratio > 1 {
			t.Errorf("volley[%d] %s ratio %v outside (0, 1]", i, pt.Label, pt.Ratio)
		}
		if math.IsNaN(pt.Misdetect) {
			t.Errorf("volley[%d] %s has no ground-truth alerts", i, pt.Label)
		}
		if !math.IsNaN(pt.EpisodeDetect) && pt.EpisodeDetect < 0.8 {
			t.Errorf("volley[%d] %s episode detection %v < 0.8 — adaptive schedule misses attack epochs", i, pt.Label, pt.EpisodeDetect)
		}
	}
	if !r.VolleyBeatsBaseline {
		t.Errorf("Volley does not dominate the uniform baseline at equal misdetection; advantages = %v\n%s",
			r.Advantage, r.Table())
	}
}

// TestRunWorkloadTenantGating is the headline acceptance check of the
// tenant-colocation family: the correlation-gated run must cut weighted
// sampling cost while keeping pooled episode recall over the gated tenants
// at or above the configured plan bound.
func TestRunWorkloadTenantGating(t *testing.T) {
	p := wloadPreset()
	r, err := RunWorkloadTenant(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Monitors != p.WloadTenants {
		t.Fatalf("monitors = %d, want %d", r.Monitors, p.WloadTenants)
	}
	g := r.Gating
	if g == nil {
		t.Fatal("tenant result has no gating run")
	}
	if g.Rules == 0 || g.GatedTasks == 0 {
		t.Fatalf("plan found %d rules gating %d tasks, want both > 0\n%s", g.Rules, g.GatedTasks, r.Table())
	}
	if !(g.Savings > 0) {
		t.Errorf("gated run saves %.4f of weighted cost, want > 0 (ungated %.0f, gated %.0f)",
			g.Savings, g.UngatedCost, g.GatedCost)
	}
	if math.IsNaN(g.Recall) || g.Recall < g.MinRecall {
		t.Errorf("gated episode recall %.4f below plan bound %.2f (ungated recall %.4f)\n%s",
			g.Recall, g.MinRecall, g.UngatedRecall, r.Table())
	}
	for i, pt := range r.Volley {
		if pt.Ratio <= 0 || pt.Ratio > 1 {
			t.Errorf("volley[%d] %s ratio %v outside (0, 1]", i, pt.Label, pt.Ratio)
		}
	}
}

// TestRunWorkloadFamilyProcsEquivalence pins the engine determinism
// contract on the new sweeps: serial and parallel runs must be
// bit-identical (workload.Generate fans GenSeries across GOMAXPROCS workers
// whatever Procs says, the sweeps across Procs; every cell writes only its
// own slot).
func TestRunWorkloadFamilyProcsEquivalence(t *testing.T) {
	serial := wloadPreset()
	serial.Procs = 1
	par := wloadPreset()
	par.Procs = 4

	es, err := RunWorkloadEntropy(serial)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := RunWorkloadEntropy(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(es, ep) {
		t.Errorf("entropy sweep differs between Procs=1 and Procs=4:\n%s\nvs\n%s", es.Table(), ep.Table())
	}

	ts, err := RunWorkloadTenant(serial)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := RunWorkloadTenant(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ts, tp) {
		t.Errorf("tenant sweep differs between Procs=1 and Procs=4:\n%s\nvs\n%s", ts.Table(), tp.Table())
	}
}

// TestWorkloadValidation covers the preset guard rails.
func TestWorkloadValidation(t *testing.T) {
	break1 := func(mut func(*Preset)) Preset {
		p := wloadPreset()
		mut(&p)
		return p
	}
	bad := []Preset{
		break1(func(p *Preset) { p.WloadEntropyNodes = 0 }),
		break1(func(p *Preset) { p.WloadEntropyWindows = 1 }),
		break1(func(p *Preset) { p.WloadErrs = nil }),
		break1(func(p *Preset) { p.WloadIntervals = []int{0} }),
		break1(func(p *Preset) { p.WloadMinRecall = 1.5 }),
	}
	for i, p := range bad {
		if _, err := RunWorkloadEntropy(p); err == nil {
			t.Errorf("bad preset %d: entropy run accepted", i)
		}
	}
	badTenant := []Preset{
		break1(func(p *Preset) { p.WloadTenants = 0 }),
		break1(func(p *Preset) { p.WloadTenantWindows = 3 }),
		break1(func(p *Preset) { p.WloadErrScales = nil }),
	}
	for i, p := range badTenant {
		if _, err := RunWorkloadTenant(p); err == nil {
			t.Errorf("bad preset %d: tenant run accepted", i)
		}
	}
}

// TestNetworkWorkloadDegenerateShapes pins the zero-value accessors of
// NetworkWorkload: a workload with no windows or no placement must answer
// without dividing by zero.
func TestNetworkWorkloadDegenerateShapes(t *testing.T) {
	empty := &NetworkWorkload{}
	if got := empty.Windows(); got != 0 {
		t.Errorf("empty Windows() = %d, want 0", got)
	}
	if got := empty.MeanServerPackets(); got != 0 {
		t.Errorf("empty MeanServerPackets() = %v, want 0", got)
	}
	if got := empty.ServerOf(7); got != 0 {
		t.Errorf("ServerOf with VMsPerServer=0 = %d, want 0", got)
	}

	// Rows exist but have zero windows.
	zeroWin := &NetworkWorkload{
		Rho:          [][]float64{{}, {}},
		Packets:      [][]int{{}, {}},
		Servers:      1,
		VMsPerServer: 2,
	}
	if got := zeroWin.Windows(); got != 0 {
		t.Errorf("zero-window Windows() = %d, want 0", got)
	}
	if got := zeroWin.MeanServerPackets(); got != 0 {
		t.Errorf("zero-window MeanServerPackets() = %v, want 0", got)
	}

	// Packets recorded but Servers unset: also guarded.
	noServers := &NetworkWorkload{
		Rho:     [][]float64{{1, 2}},
		Packets: [][]int{{10, 20}},
	}
	if got := noServers.MeanServerPackets(); got != 0 {
		t.Errorf("no-server MeanServerPackets() = %v, want 0", got)
	}
	if got := noServers.ServerOf(3); got != 0 {
		t.Errorf("no-placement ServerOf(3) = %d, want 0", got)
	}

	// Sanity: the guarded path still computes the real mean.
	real := &NetworkWorkload{
		Rho:          [][]float64{{0, 0}, {0, 0}},
		Packets:      [][]int{{10, 20}, {30, 40}},
		Servers:      2,
		VMsPerServer: 1,
	}
	if got, want := real.MeanServerPackets(), 25.0; got != want {
		t.Errorf("MeanServerPackets() = %v, want %v", got, want)
	}
	if got := real.ServerOf(1); got != 1 {
		t.Errorf("ServerOf(1) = %d, want 1", got)
	}
}
