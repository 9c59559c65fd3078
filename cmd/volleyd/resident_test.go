package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"volley/internal/alloctest"
)

// TestAdmissionKeepsWhatItAllocates: admitting 2 × 512 workload:tenant
// monitors through POST /tasks — generating their series included — grows
// the live heap by what the monitors and their series hold, and allocates
// little beyond it. A daemon that idles after admission never collects
// again, so what admission allocates and drops stays in its resident set
// (DESIGN.md §9, "The resident set").
//
// Measured on an x86-64 host with Go 1.24 and GOMAXPROCS 2, over ten runs:
// 5 283–5 452 B of live heap per monitor and 1.30–1.34 B allocated per byte
// kept. While every monitor kept a 2 040 B threshold sketch, 7 435–7 597 B
// and 1.22–1.26 (the same garbage over more kept bytes); before the source
// kept only the series its monitors read, 7 703 B and 1.20 (the assembled
// set, aggregates and all, was kept and so counted as kept); before a
// generator's scratch and the per-task sampler series, 8 540 B and 2.34. The
// bounds leave 3 % and 4 % of headroom over the largest run.
func TestAdmissionKeepsWhatItAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes under the race detector are not the program's")
	}
	const (
		perMonitorBound = 5600
		ratioBound      = 1.4
	)
	d := testClusterDaemon(t)
	mux := d.mux()
	// The daemon is new and generates every series its monitors read: its
	// generation is part of what is measured here.
	source := func(i int) string {
		return fmt.Sprintf(`{"id":"m%d","source":"workload:tenant?index=%d&tenants=1024&groups=16&windows=512&seed=977&period=1ms"}`, i%512, i)
	}
	// One round: an admission happens once, and what it allocates is
	// megabytes, far above what the runtime can add to one reading.
	before := liveHeap()
	allocated, _ := alloctest.Least(1, nil, func() {
		for task := 0; task < 2; task++ {
			mons := make([]string, 512)
			for j := range mons {
				mons[j] = source(512*task + j)
			}
			control(t, mux, http.MethodPost, "/tasks",
				fmt.Sprintf(`{"name":"kept-%d","threshold":1e12,"err":0.05,"monitors":[%s]}`, task, strings.Join(mons, ",")),
				http.StatusCreated)
		}
	})
	live := liveHeap() - before
	perMonitor, ratio := live/1024, float64(allocated)/live
	t.Logf("%.0f B live per monitor, %.2f B allocated per byte kept", perMonitor, ratio)
	if perMonitor > perMonitorBound {
		t.Errorf("admission keeps %.0f B per monitor, want ≤ %.0f", perMonitor, float64(perMonitorBound))
	}
	if ratio > ratioBound {
		t.Errorf("admission allocates %.2f B per byte it keeps, want ≤ %.2f", ratio, ratioBound)
	}
	runtime.KeepAlive(d)
}

// liveHeap is the live heap after a collection.
func liveHeap() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// scrapeValue reads one unlabelled metric off mux's /metrics.
func scrapeValue(t *testing.T, mux *http.ServeMux, name string) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return promValue(t, rec.Body.String(), name)
}

// releaseFamily is the workload:tenant family the release tests admit: 1024
// tenants of 2048 windows, 16 MiB of series, so that a series left behind
// shows against the heap's noise.
const releaseFamily = "tenants=1024&groups=16&windows=2048&seed=%d&period=1ms"

// releaseTasks are POST /tasks bodies for all 1024 tenants of releaseFamily,
// in 4 tasks of 256 monitors, and one task over group 3's aggregate.
func releaseTasks(seed int) map[string]string {
	family := fmt.Sprintf(releaseFamily, seed)
	out := make(map[string]string)
	for task := 0; task < 4; task++ {
		mons := make([]string, 256)
		for j := range mons {
			mons[j] = fmt.Sprintf(`{"id":"m%d","source":"workload:tenant?index=%d&%s"}`, j, 256*task+j, family)
		}
		name := fmt.Sprintf("rel-%d", task)
		out[name] = fmt.Sprintf(`{"name":%q,"threshold":1e12,"err":0.05,"monitors":[%s]}`, name, strings.Join(mons, ","))
	}
	out["rel-agg"] = fmt.Sprintf(`{"name":"rel-agg","threshold":1e12,"err":0.05,"monitors":[{"id":"m","source":"workload:tenantagg?group=3&%s"}]}`, family)
	return out
}

// How far the live heap may stay above where it started once every task is
// evicted, as a share of the 16 MiB of series the tasks read. Measured on an
// x86-64 host with Go 1.24 and GOMAXPROCS 2 over fifteen runs, what stays is
// 0.5–1.0 % in cluster mode (the hosted set's and the registries' grown maps)
// and 0–3.3 % in shard mode, where frames still queued on the fabric come and
// go. A family left behind would be 100 %.
const (
	clusterReleaseBound = 0.02
	shardReleaseBound   = 0.05
)

// TestClusterEvictReleasesWorkloadSeries: admitting 1024 workload:tenant
// monitors and an aggregate of their family holds each series once; evicting
// every task returns volley_workload_series and volley_workload_series_bytes
// to 0 and the live heap to within clusterReleaseBound of where it started.
func TestClusterEvictReleasesWorkloadSeries(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes under the race detector are not the program's")
	}
	d := testClusterDaemon(t)
	mux := d.mux()
	const seriesBytes = 1025 * 2048 * 8
	d.tickOnce()
	before := liveHeap()
	tasks := releaseTasks(21)
	for _, body := range tasks {
		control(t, mux, http.MethodPost, "/tasks", body, http.StatusCreated)
	}
	d.tickOnce()
	if n, b := scrapeValue(t, mux, "volley_workload_series"), scrapeValue(t, mux, "volley_workload_series_bytes"); n != 1025 || b != seriesBytes {
		t.Fatalf("hosting 1024 tenants and one aggregate, the source holds %v series, %v bytes; want 1025, %v", n, b, seriesBytes)
	}
	for name := range tasks {
		control(t, mux, http.MethodDelete, "/tasks/"+name, "", http.StatusNoContent)
	}
	d.tickOnce() // the plan lets go of the evicted monitors
	grown := liveHeap() - before
	if n, b := scrapeValue(t, mux, "volley_workload_series"), scrapeValue(t, mux, "volley_workload_series_bytes"); n != 0 || b != 0 {
		t.Errorf("with every task evicted the source holds %v series, %v bytes; want 0", n, b)
	}
	t.Logf("live heap %+.0f B after admission and eviction (%.2f %% of the series)", grown, 100*grown/seriesBytes)
	if grown > clusterReleaseBound*seriesBytes {
		t.Errorf("live heap stays %.0f B above where it started, want ≤ %.0f", grown, clusterReleaseBound*seriesBytes)
	}
	runtime.KeepAlive(d)
}

// TestShardDeleteReleasesWorkloadSeries is TestClusterEvictReleasesWorkloadSeries
// in shard mode: the tasks are admitted on one shard of two and deleted on
// the other, and once the tombstones have gossiped neither shard holds a
// series, and the live heap is back within shardReleaseBound. The fabric's frame
// and read buffers grow to the largest catalog row they have carried (a
// 256-monitor task's sources are ≈ 30 KB of JSON) and stay grown, so the
// heap is measured from the end of a first admit-and-delete cycle across a
// second one.
func TestShardDeleteReleasesWorkloadSeries(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes under the race detector are not the program's")
	}
	daemons := newShardPair(t)
	const seriesBytes = 1025 * 2048 * 8
	held := func(name string) float64 {
		return shardScrape(t, daemons[0], name) + shardScrape(t, daemons[1], name)
	}
	rounds := func(done func() bool) {
		for i := 0; i < 2000 && !done(); i++ {
			shardRound(daemons)
		}
		for i := 0; i < 10; i++ {
			shardRound(daemons) // the plans catch up with the hosted sets
		}
	}
	cycle := func(seed int) {
		tasks := releaseTasks(seed)
		for _, body := range tasks {
			control(t, daemons[0].mux(), http.MethodPost, "/tasks", body, http.StatusCreated)
		}
		rounds(func() bool { return held("volley_workload_series") >= 1025 })
		if n, b := held("volley_workload_series"), held("volley_workload_series_bytes"); n < 1025 || b < seriesBytes {
			t.Fatalf("hosting 1024 tenants and one aggregate, the shards hold %v series, %v bytes; want ≥ 1025, ≥ %v", n, b, seriesBytes)
		}
		for name := range tasks {
			control(t, daemons[1].mux(), http.MethodDelete, "/tasks/"+name, "", http.StatusNoContent)
		}
		rounds(func() bool { return held("volley_workload_series") == 0 })
		if n, b := held("volley_workload_series"), held("volley_workload_series_bytes"); n != 0 || b != 0 {
			t.Fatalf("with every task deleted the shards hold %v series, %v bytes; want 0", n, b)
		}
	}
	cycle(22)
	before := liveHeap()
	cycle(23)
	grown := liveHeap() - before
	t.Logf("live heap %+.0f B across a second admission and deletion (%.2f %% of the series)", grown, 100*grown/seriesBytes)
	if grown > shardReleaseBound*seriesBytes {
		t.Errorf("live heap stays %.0f B above where it started, want ≤ %.0f", grown, shardReleaseBound*seriesBytes)
	}
}
