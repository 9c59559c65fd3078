package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestSharedSurfaceInEveryMode boots each mode on a real listener and walks
// the HTTP surface: the routes every mode serves answer in all three — the
// observability set is registered in one place, so pprof is as complete under
// -shards and -shard-id as it is for a single signal — each mode's own routes
// answer only there, and a mode asked for another's route says 404, or 405
// where the path is one it serves under another method.
func TestSharedSurfaceInEveryMode(t *testing.T) {
	src := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { _, _ = w.Write([]byte("1")) }))
	defer src.Close()
	base := options{interval: time.Millisecond, errAllow: 0.05, maxInterval: 5, out: io.Discard}
	signal, cluster, shard := base, base, base
	signal.source, signal.threshold = src.URL, 50
	cluster.shards = 2
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
		name   string
		opts   options
		health string // a /healthz field only this mode reports
		own    []probe
	}{
		{"single-signal", signal, `"source"`, []probe{
			{"GET", "/tasks", "", 404},
			{"POST", "/tasks", "{}", 404},
			{"GET", "/cluster", "", 404},
			{"POST", "/shards", `{"id":"x"}`, 404},
		}},
		{"shards", cluster, `"ring_epoch"`, []probe{
			{"GET", "/tasks", "", 200},
			{"POST", "/tasks", "{}", 400},
			{"PATCH", "/tasks/nope", `{"threshold":1,"err":0.05}`, 400},
			{"DELETE", "/tasks/nope", "", 404},
			{"POST", "/shards", `{"id":"extra"}`, 204},
			{"DELETE", "/shards/extra", "", 204},
			{"GET", "/cluster", "", 404},
			{"PATCH", "/tasks/nope/allowance", `{"assignments":{"m":0.1}}`, 404},
		}},
		{"shard-id", shard, `"ring_digest"`, []probe{
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
			if _, body := httpGet(t, "http://"+addr+"/healthz"); !strings.Contains(body, mode.health) {
				t.Errorf("/healthz = %s, want this mode's %s", body, mode.health)
			}
		})
	}
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
