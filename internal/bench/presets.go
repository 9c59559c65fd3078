package bench

// Preset bundles the experiment sizes. Full approximates the paper's
// sweeps; Quick shrinks everything for tests and testing.B benchmarks.
type Preset struct {
	// Network workload (Fig. 5(a), 6, 8).
	NetServers        int
	NetVMsPerServer   int
	NetWindows        int
	NetFlowsPerWindow float64

	// System workload (Fig. 5(b), 7).
	SysNodes          int
	SysMetricsPerNode int
	SysSteps          int

	// Application workload (Fig. 5(c)).
	AppServers    int
	AppObjects    int
	AppTopObjects int
	AppSteps      int

	// Coordination experiment (Fig. 8).
	Fig8Monitors     int
	Fig8Steps        int
	Fig8UpdatePeriod int
	Fig8Err          float64
	Fig8BaseK        float64
	Fig8Skews        []float64

	// Workload-family sweep (RunWorkloadEntropy / RunWorkloadTenant →
	// BENCH_workloads.json; DESIGN.md §16).
	WloadEntropyNodes   int
	WloadEntropyWindows int
	WloadTenants        int
	WloadTenantGroups   int
	WloadTenantWindows  int
	// WloadErrs is the per-node allowance axis of the entropy sweep;
	// WloadErrScales the per-tier allowance scale axis of the tenant
	// sweep; WloadIntervals the uniform-interval baseline axis both are
	// compared against.
	WloadErrs      []float64
	WloadErrScales []float64
	WloadIntervals []int
	// WloadMinRecall bounds the correlation-gated tenant plan: only rules
	// with at least this recall gate a tenant, and the end-to-end episode
	// recall of the gated run is reported against it.
	WloadMinRecall float64

	// Shared sweep axes.
	Errs        []float64
	Ks          []float64
	MaxInterval int
	// Patience is the sampler's p (0 = the paper's default of 20). Quick
	// lowers it so interval growth fits its short traces.
	Patience int
	Seed     int64

	// Procs sizes the experiment engine's worker pool: independent replay
	// cells fan across this many workers. 0 means runtime.GOMAXPROCS(0);
	// 1 runs fully serial (no goroutines). Results are bit-identical for
	// every value — see Engine.
	Procs int
}

// Full is the paper-shaped preset used by cmd/volleybench and
// EXPERIMENTS.md.
func Full() Preset {
	return Preset{
		NetServers:        20,
		NetVMsPerServer:   10,
		NetWindows:        15000,
		NetFlowsPerWindow: 2000,

		SysNodes:          50,
		SysMetricsPerNode: 4,
		SysSteps:          15000,

		AppServers:    30,
		AppObjects:    50,
		AppTopObjects: 3,
		AppSteps:      15000,

		Fig8Monitors:     10,
		Fig8Steps:        20000,
		Fig8UpdatePeriod: 1000,
		Fig8Err:          0.02,
		Fig8BaseK:        1.0,
		Fig8Skews:        []float64{0, 0.5, 1, 1.5, 2},

		WloadEntropyNodes:   48,
		WloadEntropyWindows: 10000,
		WloadTenants:        2000,
		WloadTenantGroups:   40,
		WloadTenantWindows:  6000,
		WloadErrs:           []float64{0.0025, 0.005, 0.01, 0.02, 0.04, 0.08},
		WloadErrScales:      []float64{0.25, 0.5, 1, 2, 4},
		WloadIntervals:      []int{1, 2, 4, 8, 12, 16, 20},
		WloadMinRecall:      0.7,

		Errs:        []float64{0.001, 0.002, 0.004, 0.008, 0.016, 0.032},
		Ks:          []float64{6.4, 3.2, 1.6, 0.8, 0.4, 0.2, 0.1},
		MaxInterval: 20,
		Patience:    0, // the paper's p = 20
		Seed:        1,
	}
}

// Quick shrinks the sweep for unit tests and micro-benchmarks while keeping
// every code path exercised.
func Quick() Preset {
	return Preset{
		NetServers:        2,
		NetVMsPerServer:   5,
		NetWindows:        3000,
		NetFlowsPerWindow: 300,

		SysNodes:          5,
		SysMetricsPerNode: 2,
		SysSteps:          3000,

		AppServers:    4,
		AppObjects:    20,
		AppTopObjects: 2,
		AppSteps:      3000,

		Fig8Monitors:     6,
		Fig8Steps:        4000,
		Fig8UpdatePeriod: 400,
		Fig8Err:          0.02,
		Fig8BaseK:        1.0,
		Fig8Skews:        []float64{0, 1, 2},

		WloadEntropyNodes:   16,
		WloadEntropyWindows: 2400,
		WloadTenants:        240,
		WloadTenantGroups:   8,
		WloadTenantWindows:  2000,
		WloadErrs:           []float64{0.005, 0.02, 0.08},
		WloadErrScales:      []float64{0.5, 1, 2},
		WloadIntervals:      []int{1, 2, 4, 8, 16},
		WloadMinRecall:      0.7,

		Errs:        []float64{0.002, 0.008, 0.032},
		Ks:          []float64{6.4, 0.8, 0.1},
		MaxInterval: 20,
		Patience:    5,
		Seed:        1,
	}
}
