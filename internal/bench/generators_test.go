package bench

import (
	"hash/fnv"
	"math"
	"testing"
)

// digestSeries hashes every value's bits, series by series, so any change in
// a generator's draws, order or shape moves the digest.
func digestSeries(series [][]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(len(series)))
	for _, s := range series {
		put(uint64(len(s)))
		for _, v := range s {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// TestGeneratorsGolden pins the three workload generators at Quick-preset
// sizes and the seeds Figure 5 uses: every figure, ablation and baseline
// row is computed over these series, so a generator that draws differently
// moves this digest before it moves a committed number.
func TestGeneratorsGolden(t *testing.T) {
	p := Quick()
	w, err := GenNetwork(p.NetServers, p.NetVMsPerServer, p.NetWindows, p.NetFlowsPerWindow, p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	packets := make([][]float64, len(w.Packets))
	for vm, per := range w.Packets {
		packets[vm] = make([]float64, len(per))
		for i, n := range per {
			packets[vm][i] = float64(n)
		}
	}
	system, err := GenSystem(p.SysNodes, p.SysMetricsPerNode, p.SysSteps, p.Seed+100)
	if err != nil {
		t.Fatal(err)
	}
	app, err := GenApp(p.AppServers, p.AppObjects, p.AppTopObjects, p.AppSteps, p.Seed+200)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		series [][]float64
		want   uint64
	}{
		{"network rho", w.Rho, 0x7d337cdce3a56d3a},
		{"network packets", packets, 0xfedefa52a3b6aed0},
		{"system", system, 0x4e9c3866e1a12f6},
		{"application", app, 0xaf481b2704fcda32},
	} {
		if got := digestSeries(c.series); got != c.want {
			t.Errorf("%s: digest %#x, want %#x", c.name, got, c.want)
		}
	}
}
