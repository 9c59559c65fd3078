package bench

import (
	"fmt"

	"volley/internal/netsim"
	"volley/internal/trace"
)

// NetworkWorkload holds pre-generated per-VM traffic series for the
// network-level experiments (Fig. 5(a), 6, 8): the monitored traffic
// difference ρ and, for the CPU model, the per-VM packet volume.
type NetworkWorkload struct {
	// Rho is ρ per VM per window: Rho[vm][window].
	Rho [][]float64
	// Packets is the per-VM packet volume per window.
	Packets [][]int
	// Servers and VMsPerServer describe the datacenter shape.
	Servers      int
	VMsPerServer int
}

// NumVMs reports the VM count.
func (w *NetworkWorkload) NumVMs() int { return len(w.Rho) }

// Windows reports the number of generated windows.
func (w *NetworkWorkload) Windows() int {
	if len(w.Rho) == 0 {
		return 0
	}
	return len(w.Rho[0])
}

// ServerOf reports the hosting server of a VM. A degenerate workload with
// VMsPerServer ≤ 0 has no placement; everything maps to server 0 instead
// of dividing by zero.
func (w *NetworkWorkload) ServerOf(vm int) int {
	if w.VMsPerServer <= 0 {
		return 0
	}
	return vm / w.VMsPerServer
}

// MeanServerPackets reports the mean per-server packet volume per window,
// the calibration input of the CPU model.
func (w *NetworkWorkload) MeanServerPackets() float64 {
	if w.Windows() == 0 || w.Servers == 0 {
		return 0
	}
	var total float64
	for _, per := range w.Packets {
		for _, p := range per {
			total += float64(p)
		}
	}
	return total / float64(w.Windows()*w.Servers)
}

// GenNetwork simulates the virtual datacenter for the given number of
// windows and records every VM's series.
func GenNetwork(servers, vmsPerServer, windows int, flowsPerWindow float64, seed int64) (*NetworkWorkload, error) {
	cfg := netsim.DefaultConfig(servers, vmsPerServer, seed)
	if flowsPerWindow > 0 {
		cfg.Flows.MeanFlowsPerWindow = flowsPerWindow
	}
	// Fit several day/night cycles into the experiment horizon; the default
	// period models a 24-hour day of 15-second windows.
	if period := windows / 3; period < cfg.Flows.Diurnal.Period {
		cfg.Flows.Diurnal.Period = period
		if cfg.Flows.Diurnal.Period < 2 {
			cfg.Flows.Diurnal.Period = 2
		}
	}
	return genNetworkCfg(cfg, windows)
}

// GenNetworkStationary is GenNetwork with the diurnal cycle disabled: the
// traffic process is statistically stable over time. The coordination
// experiment uses it because the paper's allowance-tuning scheme assumes a
// stable distribution ("the assignment eventually converges … when the
// monitored data distribution across nodes does not significantly change")
// and its Fig. 8 controls local violation rates statically.
func GenNetworkStationary(servers, vmsPerServer, windows int, flowsPerWindow float64, seed int64) (*NetworkWorkload, error) {
	cfg := netsim.DefaultConfig(servers, vmsPerServer, seed)
	if flowsPerWindow > 0 {
		cfg.Flows.MeanFlowsPerWindow = flowsPerWindow
	}
	cfg.Flows.Diurnal = trace.Diurnal{}
	return genNetworkCfg(cfg, windows)
}

// genNetworkCfg simulates a custom datacenter configuration for the given
// number of windows.
func genNetworkCfg(cfg netsim.Config, windows int) (*NetworkWorkload, error) {
	if windows < 1 {
		return nil, fmt.Errorf("bench: need ≥ 1 window, got %d", windows)
	}
	servers, vmsPerServer := cfg.Servers, cfg.VMsPerServer
	dc, err := netsim.New(cfg)
	if err != nil {
		return nil, err
	}
	vms := dc.NumVMs()
	w := &NetworkWorkload{
		Rho:          make([][]float64, vms),
		Packets:      make([][]int, vms),
		Servers:      servers,
		VMsPerServer: vmsPerServer,
	}
	for vm := 0; vm < vms; vm++ {
		w.Rho[vm] = make([]float64, windows)
		w.Packets[vm] = make([]int, windows)
	}
	for step := 0; step < windows; step++ {
		dc.Step()
		for vm := 0; vm < vms; vm++ {
			tr, err := dc.Traffic(vm)
			if err != nil {
				return nil, err
			}
			w.Rho[vm][step] = tr.Diff()
			w.Packets[vm][step] = tr.Packets
		}
	}
	return w, nil
}

// GenSystem generates the first metricsPerNode streams of each node's
// 66-metric standard set (node n seeded seed+n). It returns one series per
// (node, metric) variable.
func GenSystem(nodes, metricsPerNode, steps int, seed int64) ([][]float64, error) {
	if steps < 1 {
		return nil, fmt.Errorf("bench: need ≥ 1 step, got %d", steps)
	}
	if nodes < 1 {
		return nil, fmt.Errorf("bench: need ≥ 1 node, got %d", nodes)
	}
	if metricsPerNode < 1 || metricsPerNode > trace.StandardMetricCount {
		return nil, fmt.Errorf("bench: metrics per node %d outside [1, %d]",
			metricsPerNode, trace.StandardMetricCount)
	}
	series := make([][]float64, 0, nodes*metricsPerNode)
	for n := 0; n < nodes; n++ {
		// Every stream has its own seed, so the unread ones change no draw.
		for _, stream := range trace.StandardMetrics(seed + int64(n))[:metricsPerNode] {
			s := make([]float64, steps)
			for step := range s {
				s[step] = stream.Next()
			}
			series = append(series, s)
		}
	}
	return series, nil
}

// GenApp generates each application server's access log and records, per
// server, the total request rate plus the access rates of the top objects.
// It returns one series per (server, variable).
func GenApp(servers, objects, topObjects, steps int, seed int64) ([][]float64, error) {
	if steps < 1 {
		return nil, fmt.Errorf("bench: need ≥ 1 step, got %d", steps)
	}
	if topObjects < 0 || topObjects >= objects {
		return nil, fmt.Errorf("bench: top objects %d outside [0, %d)", topObjects, objects)
	}
	varsPerServer := topObjects + 1
	series := make([][]float64, servers*varsPerServer)
	for i := range series {
		series[i] = make([]float64, steps)
	}
	for sv := 0; sv < servers; sv++ {
		cfg := trace.DefaultAccessConfig(objects, seed+int64(sv))
		// Shrink the diurnal period so several day/night cycles fit into
		// the experiment horizon (the default models 1-second windows over
		// a full day).
		cfg.Diurnal.Period = steps / 3
		if cfg.Diurnal.Period < 2 {
			cfg.Diurnal.Period = 2
		}
		gen, err := trace.NewAccessGen(cfg)
		if err != nil {
			return nil, err
		}
		row := series[sv*varsPerServer : (sv+1)*varsPerServer]
		for step := 0; step < steps; step++ {
			counts := gen.NextWindow()
			total := 0
			for _, c := range counts {
				total += c
			}
			row[0][step] = float64(total)
			for obj := 0; obj < topObjects; obj++ {
				row[1+obj][step] = float64(counts[obj])
			}
		}
	}
	return series, nil
}
