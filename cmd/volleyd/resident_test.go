package main

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
)

// TestAdmissionKeepsWhatItAllocates: admitting 2 × 512 workload:tenant
// monitors through POST /tasks — generating their family included — grows
// the live heap by what the monitors and their series hold, and allocates
// little beyond it. A daemon that idles after admission never collects
// again, so what admission allocates and drops stays in its resident set
// (DESIGN.md §9, "The resident set").
//
// Measured on an x86-64 host with Go 1.24 and GOMAXPROCS 2: 7 703 B of live
// heap per monitor and 1.20 B allocated per byte kept; before a generator's
// scratch and the per-task sampler series, 8 540 B and 2.34. The bounds
// leave 6 % and 25 % of headroom over the measurement, and both fail the
// code from before.
// residentRuns counts TestAdmissionKeepsWhatItAllocates' runs in this
// process, which pick its family's seed.
var residentRuns int

func TestAdmissionKeepsWhatItAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes under the race detector are not the program's")
	}
	const (
		perMonitorBound = 8 << 10
		ratioBound      = 1.5
	)
	d := testClusterDaemon(t)
	mux := d.mux()
	// A family no other test, nor an earlier run of this one under -count,
	// generates: the process caches a generated family, and its generation
	// is part of what is measured here.
	residentRuns++
	source := func(i int) string {
		return fmt.Sprintf(`{"id":"m%d","source":"workload:tenant?index=%d&tenants=1024&groups=16&windows=512&seed=%d&period=1ms"}`, i%512, i, 976+residentRuns)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for task := 0; task < 2; task++ {
		mons := make([]string, 512)
		for j := range mons {
			mons[j] = source(512*task + j)
		}
		control(t, mux, http.MethodPost, "/tasks",
			fmt.Sprintf(`{"name":"kept-%d","threshold":1e12,"err":0.05,"monitors":[%s]}`, task, strings.Join(mons, ",")),
			http.StatusCreated)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	allocated := float64(after.TotalAlloc - before.TotalAlloc)
	perMonitor, ratio := live/1024, allocated/live
	t.Logf("%.0f B live per monitor, %.2f B allocated per byte kept", perMonitor, ratio)
	if perMonitor > perMonitorBound {
		t.Errorf("admission keeps %.0f B per monitor, want ≤ %.0f", perMonitor, float64(perMonitorBound))
	}
	if ratio > ratioBound {
		t.Errorf("admission allocates %.2f B per byte it keeps, want ≤ %.2f", ratio, ratioBound)
	}
	runtime.KeepAlive(d)
}
