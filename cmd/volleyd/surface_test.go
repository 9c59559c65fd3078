package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"volley/internal/cluster"
)

// TestSharedSurfaceInEveryMode boots each mode on a real listener and walks
// the HTTP surface: the routes every mode serves answer in all three — the
// observability set is registered in one place, so pprof is as complete under
// -shards and -shard-id as it is for a single signal — each mode's own routes
// answer only there, and a mode asked for another's route says 404, or 405
// where the path is one it serves under another method. It also pins what
// the end-to-end benchmark reads: /healthz carries exactly its mode's keys,
// /debug/vars a memstats object and a volleyd object equal to /healthz, a
// shard's /healthz the counts its /cluster reports, and in both cluster
// modes /metrics a hosted monitor's sampling counter, rising.
func TestSharedSurfaceInEveryMode(t *testing.T) {
	src := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { _, _ = w.Write([]byte("1")) }))
	defer src.Close()
	base := options{interval: time.Millisecond, errAllow: 0.05, maxInterval: 5, out: io.Discard}
	signal, clustered, shard := base, base, base
	signal.source, signal.threshold = src.URL, 50
	clustered.shards = 2
	shard.shardID, shard.peerListen = "a", "127.0.0.1:0"
	shard.beaconEvery, shard.suspectAfter, shard.deadAfter, shard.snapshotEvery = 2, 8, 16, 5

	type probe struct {
		method, path, body string
		want               int
	}
	shared := []probe{
		{"GET", "/metrics", "", 200},
		{"GET", "/healthz", "", 200},
		{"GET", "/debug/events", "", 200},
		{"GET", "/debug/vars", "", 200},
		{"GET", "/debug/pprof/", "", 200},
		{"GET", "/debug/pprof/cmdline", "", 200},
		{"GET", "/debug/pprof/symbol", "", 200},
		{"GET", "/debug/pprof/heap", "", 200},
		{"GET", "/alerts", "", 200},
		{"POST", "/alerts/1/ack", "", 404},
		{"POST", "/alerts/x/resolve", "", 400},
	}
	for _, mode := range []struct {
		name       string
		opts       options
		healthKeys []string // sorted
		own        []probe
	}{
		{"single-signal", signal, []string{
			"agent_errors", "alerts", "bound", "interval", "samples", "source", "status", "uptime_seconds",
		}, []probe{
			{"GET", "/tasks", "", 404},
			{"POST", "/tasks", "{}", 404},
			{"GET", "/cluster", "", 404},
			{"POST", "/shards", `{"id":"x"}`, 404},
		}},
		{"shards", clustered, []string{
			"alerts", "handoffs", "mode", "ring_epoch", "shards", "status", "tasks", "uptime_seconds",
		}, []probe{
			{"GET", "/tasks", "", 200},
			{"POST", "/tasks", "{}", 400},
			{"PATCH", "/tasks/nope", `{"threshold":1,"err":0.05}`, 400},
			{"DELETE", "/tasks/nope", "", 404},
			{"POST", "/shards", `{"id":"extra"}`, 204},
			{"DELETE", "/shards/extra", "", 204},
			{"GET", "/cluster", "", 404},
			{"PATCH", "/tasks/nope/allowance", `{"assignments":{"m":0.1}}`, 404},
		}},
		{"shard-id", shard, []string{
			"alerts", "catalog", "cold_starts", "mode", "owned", "recoveries", "ring_digest", "ring_members",
			"shard", "status", "uptime_seconds",
		}, []probe{
			{"GET", "/tasks", "", 200},
			{"POST", "/tasks", "{}", 400},
			{"DELETE", "/tasks/nope", "", 404},
			{"GET", "/cluster", "", 200},
			{"PATCH", "/tasks/nope/allowance", `{"assignments":{"m":0.1}}`, 409},
			{"PATCH", "/tasks/nope/allowance", `{}`, 400},
			{"PATCH", "/tasks/nope", `{"threshold":1,"err":0.05}`, 405},
			{"POST", "/shards", `{"id":"x"}`, 404},
			{"DELETE", "/shards/x", "", 404},
		}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			addr, done := startDaemon(t, ctx, mode.opts)
			defer func() {
				cancel()
				if err := <-done; err != nil {
					t.Errorf("run: %v", err)
				}
			}()
			for _, p := range append(append([]probe{}, shared...), mode.own...) {
				if code, body := httpDo(t, p.method, "http://"+addr+p.path, p.body); code != p.want {
					t.Errorf("%s %s = %d %s, want %d", p.method, p.path, code, strings.TrimSpace(body), p.want)
				}
			}
			base := "http://" + addr
			health, body := healthAround(t, base, "/debug/vars")
			var keys []string
			for k := range health {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			if !slices.Equal(keys, mode.healthKeys) {
				t.Errorf("/healthz keys %v, want %v", keys, mode.healthKeys)
			}
			var vars struct {
				Memstats struct{ TotalAlloc, Mallocs, HeapInuse uint64 }
				Volleyd  map[string]any
			}
			if err := json.Unmarshal([]byte(body), &vars); err != nil {
				t.Fatalf("/debug/vars: %v", err)
			}
			if m := vars.Memstats; m.TotalAlloc == 0 || m.Mallocs == 0 || m.HeapInuse == 0 {
				t.Errorf("/debug/vars memstats %+v, want TotalAlloc, Mallocs and HeapInuse set", m)
			}
			if !sameHealth(vars.Volleyd, health) {
				t.Errorf("/debug/vars volleyd = %v, want /healthz's %v", vars.Volleyd, health)
			}
			if mode.opts.shards == 0 && mode.opts.shardID == "" {
				return
			}

			// A hosted monitor's sampling counter, the one the harness's
			// canary is read by, is on the page and rises.
			task := `{"name":"surf","threshold":50,"err":0.05,"monitors":[{"id":"m0","source":"` + src.URL + `"}]}`
			if code, body := httpDo(t, "POST", base+"/tasks", task); code != http.StatusCreated {
				t.Fatalf("POST /tasks = %d %s", code, body)
			}
			const series = `volley_sampler_observations_total{instance="surf/mon/m0"} `
			observed := func() float64 {
				_, page := httpGet(t, base+"/metrics")
				for _, line := range strings.Split(page, "\n") {
					if v, ok := strings.CutPrefix(line, series); ok {
						f, _ := strconv.ParseFloat(v, 64)
						return f
					}
				}
				return 0
			}
			var first float64
			waitFor(t, 5*time.Second, "the hosted monitor's first observation", func() bool { first = observed(); return first > 0 })
			waitFor(t, 5*time.Second, "the hosted monitor's observations to rise", func() bool { return observed() > first })
			if mode.opts.shardID == "" {
				return
			}

			// A shard's /healthz reports the counts its /cluster dump holds.
			health, body = healthAround(t, base, "/cluster")
			var st cluster.NodeStatus
			if err := json.Unmarshal([]byte(body), &st); err != nil {
				t.Fatalf("/cluster: %v", err)
			}
			want := map[string]any{
				"shard": st.ID, "ring_digest": fmt.Sprintf("%016x", st.RingDigest), "ring_members": st.RingMembers,
				"owned": len(st.Owned), "catalog": st.CatalogLive, "cold_starts": st.ColdStarts, "recoveries": st.Recoveries,
			}
			for k, v := range want {
				if fmt.Sprint(health[k]) != fmt.Sprint(v) {
					t.Errorf("/healthz %s = %v, /cluster says %v", k, health[k], v)
				}
			}
			if len(st.Owned) != 1 || st.CatalogLive != 1 {
				t.Errorf("/cluster owns %d tasks of a %d-row catalog, want the one admitted", len(st.Owned), st.CatalogLive)
			}
		})
	}
}

// healthAround reads path between two /healthz reads that agree, so that
// what path reports was read while the health counts stood still; it
// returns the first /healthz and path's body.
func healthAround(t *testing.T, base, path string) (map[string]any, string) {
	t.Helper()
	read := func() map[string]any {
		var h map[string]any
		if _, body := httpGet(t, base+"/healthz"); json.Unmarshal([]byte(body), &h) != nil {
			t.Fatalf("/healthz = %s, not a JSON object", body)
		}
		return h
	}
	for range 100 {
		before := read()
		_, body := httpGet(t, base+path)
		if sameHealth(before, read()) {
			return before, body
		}
	}
	t.Fatalf("/healthz never stood still across a read of %s", path)
	return nil, ""
}

// sameHealth compares two health payloads on every key but the uptime.
func sameHealth(a, b map[string]any) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || k != "uptime_seconds" && !reflect.DeepEqual(v, w) {
			return false
		}
	}
	return true
}

// TestAdmissionRejectionsAgree: cluster mode and shard mode decode and check
// a POST /tasks body with the same code, so a body one refuses the other
// refuses too, with 400 and the same words.
func TestAdmissionRejectionsAgree(t *testing.T) {
	cluster := testClusterDaemon(t).mux()
	sd, err := newShardDaemon(options{
		interval: time.Millisecond, maxInterval: 10, out: io.Discard,
		shardID: "a", peerListen: "127.0.0.1:0",
		beaconEvery: 2, suspectAfter: 8, deadAfter: 16, snapshotEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := sd.close(); err != nil {
			t.Error(err)
		}
	})
	shard := sd.mux()

	for _, tc := range []struct{ name, body, wantErr string }{
		{"malformed body", `{"name":`, "unexpected EOF"},
		{"no monitors", `{"name":"t","threshold":1,"err":0.05,"monitors":[]}`, `task "t" has no monitors`},
		{"empty monitor ID", `{"name":"t","threshold":1,"err":0.05,"monitors":[{"id":"","source":"cmd:echo 1"}]}`, `monitor ID "" empty or duplicate`},
		{"duplicate monitor ID", `{"name":"t","threshold":1,"err":0.05,"monitors":[{"id":"m","source":"cmd:echo 1"},{"id":"m","source":"cmd:echo 2"}]}`, `monitor ID "m" empty or duplicate`},
		{"bad direction", `{"name":"t","threshold":1,"err":0.05,"direction":"sideways","monitors":[{"id":"m","source":"cmd:echo 1"}]}`, `unknown direction "sideways"`},
		{"unknown source scheme", `{"name":"t","threshold":1,"err":0.05,"monitors":[{"id":"m","source":"ftp://host/x"}]}`, `unknown source "ftp://host/x"`},
		{"empty command", `{"name":"t","threshold":1,"err":0.05,"monitors":[{"id":"m","source":"cmd: "}]}`, `empty command`},
		{"workload index out of range", `{"name":"t","threshold":1,"err":0.05,"monitors":[{"id":"m","source":"workload:tenant?index=64&tenants=64&windows=16"}]}`, `index 64 outside [0, 64)`},
		{"unknown workload family", `{"name":"t","threshold":1,"err":0.05,"monitors":[{"id":"m","source":"workload:weather?index=0"}]}`, `unknown workload family "weather"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var bodies []string
			for _, mux := range []*http.ServeMux{cluster, shard} {
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tasks", strings.NewReader(tc.body)))
				var got struct{ Error string }
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
					t.Errorf("POST /tasks answered %q: %v", rec.Body.String(), err)
				}
				if rec.Code != http.StatusBadRequest || !strings.Contains(got.Error, tc.wantErr) {
					t.Errorf("POST /tasks = %d %q, want 400 naming %q", rec.Code, got.Error, tc.wantErr)
				}
				if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
					t.Errorf("Content-Type %q, want application/json", ct)
				}
				bodies = append(bodies, rec.Body.String())
			}
			if bodies[0] != bodies[1] {
				t.Errorf("the two modes word the rejection differently:\n -shards   %s -shard-id %s", bodies[0], bodies[1])
			}
		})
	}
	// Nothing that was refused left a trace in either catalog.
	for name, mux := range map[string]*http.ServeMux{"-shards": cluster, "-shard-id": shard} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/tasks", nil))
		if got := strings.TrimSpace(rec.Body.String()); got != "[]" && got != "null" {
			t.Errorf("%s lists %s after only refused admissions", name, got)
		}
	}
}
