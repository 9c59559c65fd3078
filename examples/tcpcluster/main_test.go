package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"volley"
)

// TestRun exercises the full TCP deployment once (a few seconds of wall
// clock, real sockets on localhost) with the observability endpoint
// attached, scraping /metrics mid-run and working the /alerts operator
// API the way the README quick-start does with curl.
func TestRun(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping TCP example in short mode")
	}

	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run("127.0.0.1:0", time.Second, func(a string) { addrCh <- a }) }()

	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("metrics endpoint never came up")
	}

	// Scrape midway through the run: the cluster is live, so the page must
	// show the monitors' and the task's sampler series, the coordinator's
	// live views and the trace counters.
	time.Sleep(1500 * time.Millisecond)
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`volley_sampler_interval{task="tcp-demo"}`,
		"volley_coordinator_alive_monitors",
		"volley_sampler_observations_total",
		"volley_trace_events_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	// The end-of-run spike opens one alert episode; during the linger
	// window the operator API acknowledges and resolves it, exactly as the
	// README's curl sequence does.
	getAlerts := func() []volley.Alert {
		resp, err := http.Get("http://" + addr + "/alerts")
		if err != nil {
			t.Fatalf("GET /alerts: %v", err)
		}
		defer resp.Body.Close()
		var out []volley.Alert
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("GET /alerts decode: %v", err)
		}
		return out
	}
	var open volley.Alert
	deadline := time.Now().Add(10 * time.Second)
	for found := false; !found; {
		for _, a := range getAlerts() {
			if a.Status == volley.AlertOpen {
				open, found = a, true
			}
		}
		if !found {
			if time.Now().After(deadline) {
				t.Fatal("no open alert from the end-of-run spike")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	post := func(path string, want int) *http.Response {
		resp, err := http.Post("http://"+addr+path, "", nil)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		if resp.StatusCode != want {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("POST %s = %d %s, want %d", path, resp.StatusCode, body, want)
		}
		return resp
	}
	id := strconv.FormatUint(open.ID, 10)
	ackResp := post("/alerts/"+id+"/ack?actor=oncall", http.StatusOK)
	var acked volley.Alert
	if err := json.NewDecoder(ackResp.Body).Decode(&acked); err != nil || acked.AckedBy != "oncall" {
		t.Fatalf("ack response: %+v (%v)", acked, err)
	}
	ackResp.Body.Close()
	post("/alerts/"+id+"/resolve?actor=oncall", http.StatusOK).Body.Close()

	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
