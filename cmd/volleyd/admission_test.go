package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"volley"
)

// metricsPage is GET /metrics as a scraper reads it.
func metricsPage(t *testing.T, mux *http.ServeMux) string {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	return rec.Body.String()
}

// instanceLines are the page's sample lines that carry the given instance
// prefix in their labels: one per hosted monitor.
func instanceLines(page, prefix string) []string {
	return labelLines(page, `instance="`+prefix)
}

// taskLines are the page's sample lines whose task label has the given
// prefix: a block of taskBlock per hosted task.
func taskLines(page, prefix string) []string {
	return labelLines(page, `task="`+prefix)
}

// taskBlock is what a hosted task puts on the page beyond its monitors' one
// line each: interval grows, resets, agent rejections and the mean interval,
// a line each, and the bound histogram's thirteen.
const taskBlock = 4 + 13

func labelLines(page, label string) []string {
	var out []string
	for _, line := range strings.Split(page, "\n") {
		if strings.Contains(line, label) {
			out = append(out, line)
		}
	}
	return out
}

// wideTask is a POST /tasks body for n monitors over one 8 192-tenant
// family, the shape of the benchmark's fullrate-wide tasks.
func wideTask(name string, first, n int) string {
	var mons []string
	for i := 0; i < n; i++ {
		mons = append(mons, fmt.Sprintf(`{"id":"m%d","source":"workload:tenant?index=%d&tenants=8192&groups=16&windows=64&seed=11&period=1ms"}`, i, first+i))
	}
	return fmt.Sprintf(`{"name":%q,"threshold":1e12,"err":0.05,"monitors":[%s]}`, name, strings.Join(mons, ","))
}

// TestWideAdmissionsCostTheSame: admitting a 1 024-monitor task costs what
// the task holds, not what the daemon already hosts — the eighth such
// admission takes no more than twice the second (the first pays for
// generating the family; with a registry that scanned a family on every
// registration the eighth took six times the second).
func TestWideAdmissionsCostTheSame(t *testing.T) {
	if testing.Short() {
		t.Skip("hosts 8 192 monitors: not under -short")
	}
	var second, eighth time.Duration
	for attempt := 0; attempt < 3; attempt++ { // a timing comparison: the best of three
		d := testClusterDaemon(t)
		mux := d.mux()
		took := make([]time.Duration, 8)
		for i := range took {
			body := wideTask(fmt.Sprintf("wide-%d", i), 1024*i, 1024)
			start := time.Now()
			control(t, mux, http.MethodPost, "/tasks", body, http.StatusCreated)
			took[i] = time.Since(start)
		}
		page := metricsPage(t, mux)
		if n, blocks := len(instanceLines(page, "wide-")), len(taskLines(page, "wide-")); n != 8*1024 || blocks != 8*taskBlock {
			t.Fatalf("%d monitor and %d task sample lines for the wide tasks, want %d and %d", n, blocks, 8*1024, 8*taskBlock)
		}
		for i := range took {
			control(t, mux, http.MethodDelete, fmt.Sprintf("/tasks/wide-%d", i), "", http.StatusNoContent)
		}
		page = metricsPage(t, mux)
		if n := len(instanceLines(page, "wide-")) + len(taskLines(page, "wide-")); n != 0 {
			t.Fatalf("%d sample lines left once the wide tasks are evicted", n)
		}
		second, eighth = took[1], took[7]
		t.Logf("admissions took %v", took)
		if eighth <= 2*second {
			return
		}
	}
	t.Errorf("the eighth 1 024-monitor admission took %v, the second %v: more than twice", eighth, second)
}

// stalledResponse is a scraper that has stopped reading: every Write blocks
// until release is closed.
type stalledResponse struct {
	header  http.Header
	body    bytes.Buffer
	arrived chan struct{}
	release chan struct{}
	once    sync.Once
}

func (s *stalledResponse) Header() http.Header { return s.header }
func (s *stalledResponse) WriteHeader(int)     {}
func (s *stalledResponse) Write(p []byte) (int, error) {
	s.once.Do(func() { close(s.arrived) })
	<-s.release
	return s.body.Write(p)
}

// TestStalledScrapeStopsNothing: with a GET /metrics stuck on a client that
// does not read, a task is admitted, another evicted and a hundred ticks run
// — the scrape holds no lock while it waits — and the page the client
// finally gets is whole.
func TestStalledScrapeStopsNothing(t *testing.T) {
	d := testClusterDaemon(t)
	mux := d.mux()
	for i := 0; i < 4; i++ {
		control(t, mux, http.MethodPost, "/tasks", tenantTask(fmt.Sprintf("task-%d", i), 64*i, 64), http.StatusCreated)
	}
	for i := 0; i < 20; i++ {
		d.tickOnce()
	}
	scraper := &stalledResponse{header: http.Header{}, arrived: make(chan struct{}), release: make(chan struct{})}
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		mux.ServeHTTP(scraper, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	}()
	<-scraper.arrived

	worked := make(chan struct{})
	admit, evict := httptest.NewRecorder(), httptest.NewRecorder()
	go func() {
		defer close(worked)
		mux.ServeHTTP(admit, httptest.NewRequest(http.MethodPost, "/tasks", strings.NewReader(tenantTask("late", 300, 1))))
		mux.ServeHTTP(evict, httptest.NewRequest(http.MethodDelete, "/tasks/task-2", nil))
		for i := 0; i < 100; i++ {
			d.tickOnce()
		}
	}()
	select {
	case <-worked:
	case <-time.After(20 * time.Second):
		t.Fatal("an admission, an eviction and 100 ticks did not finish while a scrape was stalled")
	}
	if admit.Code != http.StatusCreated || evict.Code != http.StatusNoContent {
		t.Fatalf("during the stalled scrape POST /tasks = %d %s, DELETE = %d %s", admit.Code, admit.Body, evict.Code, evict.Body)
	}
	before := d.clock.begun.Load()
	close(scraper.release)
	<-scraped
	if before < 120 {
		t.Fatalf("%d ticks begun, want the 20 before the scrape and the 100 during it", before)
	}
	page := scraper.body.String()
	if last := page[strings.LastIndex(strings.TrimSuffix(page, "\n"), "\n")+1:]; !strings.HasPrefix(last, "volley_trace_ring_events ") || !strings.HasSuffix(last, "\n") {
		t.Fatalf("the stalled page is cut short: it ends %q", last)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		key, value, ok := strings.Cut(line, " ")
		if i := strings.LastIndex(line, "} "); i >= 0 {
			key, value, ok = line[:i+1], line[i+2:], true
		}
		if !ok || value == "" || strings.ContainsAny(value, " {}") {
			t.Fatalf("torn line on the stalled page: %q", line)
		}
		if seen[key] {
			t.Fatalf("on the stalled page twice: %q", line)
		}
		seen[key] = true
	}
	if n := len(instanceLines(page, "late/")) + len(taskLines(page, "late")); n != 0 {
		t.Errorf("the task admitted during the scrape has %d lines on its page", n)
	}
	next := metricsPage(t, mux)
	if n, block := len(instanceLines(next, "late/")), len(taskLines(next, "late")); n != 1 || block != taskBlock {
		t.Errorf("the task admitted during the scrape has %d monitor and %d task lines on the next page, want 1 and %d", n, block, taskBlock)
	}
}

// TestEvictedTaskLeavesMetrics: a task's per-monitor series are registered
// at admission and removed at eviction, in both cluster modes; a task
// admitted again under the same name counts from zero; and an admission
// that fails half way leaves no series behind.
func TestEvictedTaskLeavesMetrics(t *testing.T) {
	shard, err := newShardDaemon(options{
		interval: time.Millisecond, maxInterval: 10, out: io.Discard,
		shardID: "a", peerListen: "127.0.0.1:0",
		beaconEvery: 2, suspectAfter: 8, deadAfter: 16, snapshotEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := shard.close(); err != nil {
			t.Error(err)
		}
	}()
	cluster := testClusterDaemon(t)
	for _, mode := range []struct {
		name string
		mux  *http.ServeMux
		tick func()
	}{
		{"cluster", cluster.mux(), cluster.tickOnce},
		{"shard", shard.mux(), shard.tickOnce},
	} {
		t.Run(mode.name, func(t *testing.T) {
			mux := mode.mux
			ticks := func(n int) {
				for i := 0; i < n; i++ {
					mode.tick()
				}
			}
			control(t, mux, http.MethodPost, "/tasks", tenantTask("resident", 0, 4), http.StatusCreated)
			ticks(10)
			page := metricsPage(t, mux)
			resident := append(instanceLines(page, "resident/"), taskLines(page, `resident"`)...)
			if len(resident) != 4+taskBlock {
				t.Fatalf("the resident task has %d lines, want %d", len(resident), 4+taskBlock)
			}

			control(t, mux, http.MethodPost, "/tasks", tenantTask("tenant", 100, 8), http.StatusCreated)
			ticks(30)
			page = metricsPage(t, mux)
			if n, block := len(instanceLines(page, "tenant/")), len(taskLines(page, `tenant"`)); n != 8 || block != taskBlock {
				t.Fatalf("the admitted task has %d monitor and %d task lines, want 8 and %d", n, block, taskBlock)
			}
			if got := promLabeledSum(t, page, "volley_sampler_observations_total", `instance="tenant/mon/m3"`); got < 2 {
				t.Fatalf("tenant/mon/m3 observed %v times in 30 ticks", got)
			}

			control(t, mux, http.MethodDelete, "/tasks/tenant", "", http.StatusNoContent)
			ticks(2) // shard mode stops the task on the node's next tick
			page = metricsPage(t, mux)
			if left := append(instanceLines(page, "tenant/"), taskLines(page, `tenant"`)...); len(left) != 0 {
				t.Fatalf("%d lines of the evicted task are still on the page, the first %q", len(left), left[0])
			}
			if n := len(instanceLines(page, "resident/")) + len(taskLines(page, `resident"`)); n != len(resident) {
				t.Fatalf("the resident task has %d lines after its neighbour's eviction, had %d", n, len(resident))
			}

			control(t, mux, http.MethodPost, "/tasks", tenantTask("tenant", 100, 8), http.StatusCreated)
			if mode.name == "shard" {
				// Cluster mode hosts at admission; a shard on its next tick,
				// which also samples once.
				ticks(1)
			}
			page = metricsPage(t, mux)
			if n, block := len(instanceLines(page, "tenant/")), len(taskLines(page, `tenant"`)); n != 8 || block != taskBlock {
				t.Fatalf("the task admitted again has %d monitor and %d task lines, want 8 and %d", n, block, taskBlock)
			}
			want := 0.0
			if mode.name == "shard" {
				want = 1
			}
			if got := promLabeledSum(t, page, "volley_sampler_observations_total", `instance="tenant/mon/m3"`); got != want {
				t.Fatalf("tenant/mon/m3 reads %v observations on re-admission, want %v: it continues the evicted counter", got, want)
			}
		})
	}

	// buildMonitors, failing at its last monitor (an address the network
	// already knows), takes back what the earlier ones registered.
	t.Run("failed admission", func(t *testing.T) {
		d := testClusterDaemon(t)
		if err := d.net.Register("broken/mon/m2", func(volley.Message) {}); err != nil {
			t.Fatal(err)
		}
		control(t, d.mux(), http.MethodPost, "/tasks", tenantTask("broken", 0, 3), http.StatusBadRequest)
		page := metricsPage(t, d.mux())
		if left := append(instanceLines(page, "broken/"), taskLines(page, "broken")...); len(left) != 0 {
			t.Fatalf("a refused admission left %d lines, the first %q", len(left), left[0])
		}
		// The address is still the stranger's: the daemon freed only its own.
		if err := d.net.Register("broken/mon/m2", func(volley.Message) {}); err == nil {
			t.Fatal("the refused admission deregistered an address that was not its monitor's")
		}
		if err := d.net.Register("broken/mon/m0", func(volley.Message) {}); err != nil {
			t.Fatalf("the refused admission left its first monitor's address registered: %v", err)
		}
	})
}

// TestExplainReportsEachMonitor: GET /tasks/{name}/explain answers, in both
// cluster modes, with the state of every monitor hosted for the task — the
// interval the tick uses, the local threshold and allowance share, the
// counters — and 404 for a task the daemon does not host, evicted ones
// included.
func TestExplainReportsEachMonitor(t *testing.T) {
	shard, err := newShardDaemon(options{
		interval: time.Millisecond, maxInterval: 10, out: io.Discard,
		shardID: "a", peerListen: "127.0.0.1:0",
		beaconEvery: 2, suspectAfter: 8, deadAfter: 16, snapshotEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := shard.close(); err != nil {
			t.Error(err)
		}
	}()
	cluster := testClusterDaemon(t)
	for _, mode := range []struct {
		name string
		host *monitorHost
		mux  *http.ServeMux
		tick func()
	}{
		{"cluster", cluster.monitorHost, cluster.mux(), cluster.tickOnce},
		{"shard", shard.monitorHost, shard.mux(), shard.tickOnce},
	} {
		t.Run(mode.name, func(t *testing.T) {
			explain := func(name string, code int) []volley.MonitorExplanation {
				t.Helper()
				rec := httptest.NewRecorder()
				mode.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/tasks/"+name+"/explain", nil))
				if rec.Code != code {
					t.Fatalf("GET /tasks/%s/explain = %d %s, want %d", name, rec.Code, rec.Body, code)
				}
				var body struct {
					Name     string
					Monitors []volley.MonitorExplanation
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					t.Fatal(err)
				}
				return body.Monitors
			}
			control(t, mode.mux, http.MethodPost, "/tasks", tenantTask("explained", 0, 3), http.StatusCreated)
			for i := 0; i < 40; i++ {
				mode.tick()
			}
			got := explain("explained", http.StatusOK)
			mons := mode.host.hosted.Task("explained").Mons
			if len(got) != 3 || len(mons) != 3 {
				t.Fatalf("%d monitors explained, %d hosted, want 3", len(got), len(mons))
			}
			for i, e := range got {
				if want := mons[i].Explain(); e != want {
					t.Errorf("monitor %d explained as %+v, reads %+v", i, e, want)
				}
				if e.ID != fmt.Sprintf("explained/mon/m%d", i) || e.Interval != mons[i].Interval() ||
					e.Threshold != 1e12/3 || e.Err <= 0 || e.Err > 0.05 || e.Samples == 0 || e.Ticks < 39 {
					t.Errorf("monitor %d explained as %+v", i, e)
				}
			}
			explain("nobody", http.StatusNotFound)
			control(t, mode.mux, http.MethodDelete, "/tasks/explained", "", http.StatusNoContent)
			for i := 0; i < 2; i++ {
				mode.tick() // shard mode stops the task on the node's next tick
			}
			explain("explained", http.StatusNotFound)
		})
	}
}

// TestRetuneNamesAThreshold: PATCH /tasks/{name} sets a threshold and an
// allowance and nothing else. A body naming a selectivity — alone, where it
// would otherwise decode as threshold 0, or beside a threshold — is refused
// and changes nothing; the daemon keeps no per-monitor quantile summary to
// answer one from, and /metrics carries none.
func TestRetuneNamesAThreshold(t *testing.T) {
	d := testClusterDaemon(t)
	mux := d.mux()
	control(t, mux, http.MethodPost, "/tasks", tenantTask("retuned", 0, 2), http.StatusCreated)
	for i := 0; i < 20; i++ {
		d.tickOnce()
	}
	state := func() (volley.ClusterTaskSpec, []volley.MonitorExplanation) {
		var out []volley.MonitorExplanation
		for _, m := range d.hosted.Task("retuned").Mons {
			out = append(out, m.Explain())
		}
		return d.cl.Tasks()[0].Spec, out
	}
	spec, mons := state()
	for _, body := range []string{
		`{"selectivity":1,"err":0.02}`,
		`{"selectivity":1,"threshold":80,"err":0.02}`,
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPatch, "/tasks/retuned", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "ThresholdForSelectivity") {
			t.Errorf("PATCH %s = %d %s, want 400 naming ThresholdForSelectivity", body, rec.Code, rec.Body)
		}
		if s, m := state(); s.Threshold != spec.Threshold || s.Err != spec.Err || !reflect.DeepEqual(m, mons) {
			t.Errorf("PATCH %s moved the task from %+v %+v to %+v %+v", body, spec, mons, s, m)
		}
	}
	control(t, mux, http.MethodPatch, "/tasks/retuned", `{"threshold":80,"err":0.02}`, http.StatusNoContent)
	if s, m := state(); s.Threshold != 80 || s.Err != 0.02 || m[0].Threshold != 40 || m[1].Threshold != 40 {
		t.Errorf("after a threshold retune: %+v %+v, want 80 split as 40 + 40", s, m)
	}
	page := metricsPage(t, mux)
	for _, gone := range []string{"volley_sketch_", "volley_series_resident_bytes"} {
		if strings.Contains(page, gone) {
			t.Errorf("/metrics carries %s", gone)
		}
	}
}
