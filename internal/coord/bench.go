package coord

import (
	"fmt"
	"time"

	"volley/internal/transport"
)

// RebalanceHarness drives the coordinator's adaptive rebalance path in
// isolation, for BenchmarkRebalance, the end-to-end harness's
// coord.rebalance_ns_1024 layer (benchmark/layers.go) and the steady-state
// zero-allocation guard. Each Rebalance
// call refreshes every monitor's yield report in place and runs one full
// rebalance — gather, water-filling distribution, damped update — exactly
// as a coordinator tick at the update period would.
type RebalanceHarness struct {
	c *Coordinator
}

// NewRebalanceHarness builds a coordinator with n monitors on a private
// in-memory network and seeds a yield-report mix that exercises the whole
// distribution: roughly a third of the monitors are saturated donors
// (zero reduction, so the throttle never skips and their floors drop to
// err_min once the donor hysteresis clears), the rest are err-limited
// receivers with yields spread over an order of magnitude.
func NewRebalanceHarness(n int) (*RebalanceHarness, error) {
	if n < 2 {
		return nil, fmt.Errorf("coord: rebalance harness needs ≥ 2 monitors, got %d", n)
	}
	monitors := make([]string, n)
	for i := range monitors {
		monitors[i] = fmt.Sprintf("m%06d", i)
	}
	c, err := New(Config{
		ID:        "bench-coord",
		Task:      "bench",
		Threshold: 1000,
		Err:       0.01,
		Monitors:  monitors,
		Network:   transport.NewMemory(),
		// err_min must shrink with n: at the default MinAssignFrac (0.01),
		// err_min·n ≥ Err once n ≥ 100 and every floor pins — the
		// distribution degenerates to scaled floors and the benchmark
		// would time the wrong branch. 0.1/n keeps err_min 10× below the
		// even split at every size, so the water-fill genuinely engages.
		MinAssignFrac: 0.1 / float64(n),
		UpdatePeriod:  1,
	})
	if err != nil {
		return nil, err
	}
	c.now = time.Second
	c.ticks = 1
	h := &RebalanceHarness{c: c}
	return h, nil
}

// refreshLocked re-marks every yield report fresh with the harness's
// workload mix. Caller holds h.c.mu.
func (h *RebalanceHarness) refreshLocked() {
	for i := range h.c.yields {
		r := &h.c.yields[i]
		if i%3 == 0 {
			// Saturated at the maximum interval: prospective donor.
			r.reduction = 0
			r.needed = 1e-6
			r.interval = 20
		} else {
			// Err-limited: protected floor, yield varying ~7× across i.
			r.reduction = 0.5 / float64(1+i%7)
			r.needed = 1e-4 * float64(1+i%13)
			r.interval = 3
		}
		r.fresh = true
	}
}

// Rebalance runs one full rebalance over freshly stamped yield reports.
// Steady state (after the first call has warmed the scratch slices and
// the donor hysteresis) performs zero heap allocations.
func (h *RebalanceHarness) Rebalance() {
	h.c.mu.Lock()
	h.refreshLocked()
	h.c.rebalanceLocked()
	h.c.mu.Unlock()
}

// Coordinator exposes the underlying coordinator, mainly so tests can
// assert invariants (conservation, floors) on the harness state.
func (h *RebalanceHarness) Coordinator() *Coordinator { return h.c }
