package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"volley"
)

func TestBuildWorkloadAgentValidation(t *testing.T) {
	for _, source := range []string{
		"workload:bogus",                        // unknown family
		"workload:entropy",                      // missing index
		"workload:entropy?index=99&nodes=4",     // index out of range
		"workload:tenant?index=-1",              // negative index
		"workload:tenantagg",                    // missing group
		"workload:tenantagg?group=16&groups=16", // group out of range
		"workload:tenant?index=0&period=0s",     // non-positive period
		"workload:tenant?index=0&period=xyz",    // unparseable period
		"workload:tenant?index=x",               // unparseable int
		// Family configurations that do not generate: refused by the check,
		// before anything is generated.
		"workload:tenant?index=0&tenants=4&groups=8",    // groups > tenants
		"workload:tenantagg?group=0&tenants=4&groups=8", // groups > tenants
		"workload:tenant?index=0&windows=1",             // windows=1
		"workload:entropy?index=0&nodes=4&windows=1",    // windows=1
		"workload:tenant?index=0&tenants=0&groups=0",    // no tenants
		"workload:entropy?index=0&nodes=0",              // no nodes
	} {
		if _, err := checkSource(source, nil); err == nil {
			t.Errorf("checkSource(%q) accepted, want error", source)
		}
	}
}

// testDaemonCore is a daemon core with no mode on top, for building agents.
func testDaemonCore(t *testing.T) *daemon {
	t.Helper()
	d, err := newDaemon(options{interval: time.Millisecond, maxInterval: 10, out: io.Discard}, "test")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := d.close(); err != nil {
			t.Error(err)
		}
	})
	return d
}

// sameBits fails unless the agent serves want, every window bit for bit.
func sameBits(t *testing.T, what string, agent volley.Agent, want []float64) {
	t.Helper()
	got := agent.(*workloadAgent).values
	if len(got) != len(want) {
		t.Fatalf("%s serves %d windows, want %d", what, len(got), len(want))
	}
	for w := range want {
		if math.Float64bits(got[w]) != math.Float64bits(want[w]) {
			t.Fatalf("%s window %d = %v, want %v", what, w, got[w], want[w])
		}
	}
}

// TestBuildWorkloadAgentServesSeries: every window a tenant, tenantagg or
// entropy source serves is bit for bit the one volley.GenerateWorkload
// assembles, whether a group's aggregate is built before its members or
// after some of them, and no series is generated twice: the source holds
// one series per tenant and per aggregate. Released, it holds nothing.
func TestBuildWorkloadAgentServesSeries(t *testing.T) {
	const tenants, groups, windows = 24, 4, 64
	set, err := volley.GenerateWorkload(volley.DefaultTenantColoWorkload(tenants, groups, windows, 11))
	if err != nil {
		t.Fatal(err)
	}
	eset, err := volley.GenerateWorkload(volley.DefaultEntropyFlowWorkload(4, windows, 5))
	if err != nil {
		t.Fatal(err)
	}
	family := fmt.Sprintf("tenants=%d&groups=%d&windows=%d&seed=11&period=1h", tenants, groups, windows)
	tenant := func(i int) string { return fmt.Sprintf("workload:tenant?index=%d&%s", i, family) }
	agg := func(g int) string { return fmt.Sprintf("workload:tenantagg?group=%d&%s", g, family) }
	for _, aggsFirst := range []bool{true, false} {
		d := testDaemonCore(t)
		build := func(sources ...string) []volley.Agent {
			t.Helper()
			srcs := make([]checkedSource, len(sources))
			for i, source := range sources {
				var err error
				if srcs[i], err = checkSource(source, nil); err != nil {
					t.Fatal(err)
				}
			}
			agents, err := d.buildAgents(srcs)
			if err != nil {
				t.Fatal(err)
			}
			return agents
		}
		var all []volley.Agent
		checkAggs := func() {
			aggs := build(agg(0), agg(1), agg(2), agg(3))
			for g, a := range aggs {
				sameBits(t, fmt.Sprintf("aggsFirst=%v aggregate %d", aggsFirst, g), a, set.Aggregates[g].Values)
			}
			all = append(all, aggs...)
		}
		if aggsFirst {
			// tenants-gated's order: the aggregates, then one task per tenant.
			checkAggs()
		} else {
			// Some members first, in a batch of their own, out of order.
			first := build(tenant(13), tenant(0), tenant(5), tenant(13))
			for k, i := range []int{13, 0, 5, 13} {
				sameBits(t, fmt.Sprintf("tenant %d before its aggregate", i), first[k], set.Series[i].Values)
			}
			all = append(all, first...)
			checkAggs()
		}
		for i := tenants - 1; i >= 0; i-- {
			a := build(tenant(i))[0]
			sameBits(t, fmt.Sprintf("aggsFirst=%v tenant %d", aggsFirst, i), a, set.Series[i].Values)
			all = append(all, a)
		}
		ents := build("workload:entropy?index=3&nodes=4&windows=64&seed=5&period=1h",
			"workload:entropy?index=0&nodes=4&windows=64&seed=5&period=1h",
			"workload:entropy?index=2&nodes=4&windows=64&seed=5&period=1h")
		for k, i := range []int{3, 0, 2} {
			sameBits(t, fmt.Sprintf("entropy node %d", i), ents[k], eset.Series[i].Values)
		}
		all = append(all, ents...)
		if got, want := d.workloads.series.Load(), int64(tenants+groups+3); got != want {
			t.Errorf("aggsFirst=%v: the source holds %d series, want %d (one per tenant, aggregate and node)", aggsFirst, got, want)
		}
		if got, want := d.workloads.bytes.Load(), int64(tenants+groups+3)*windows*8; got != want {
			t.Errorf("aggsFirst=%v: the source holds %d bytes, want %d", aggsFirst, got, want)
		}
		// An agent reads a window by wall time, out of the series it holds.
		if _, err := all[0].Sample(); err != nil {
			t.Fatal(err)
		}
		d.releaseAgents(all)
		if n, b := d.workloads.series.Load(), d.workloads.bytes.Load(); n != 0 || b != 0 || len(d.workloads.entries) != 0 {
			t.Errorf("aggsFirst=%v: released, the source still holds %d series, %d bytes, %d entries", aggsFirst, n, b, len(d.workloads.entries))
		}
	}
}

// promLabeledSum sums every sample of a labeled metric whose label block
// contains labelSubstr.
func promLabeledSum(t *testing.T, exposition, name, labelSubstr string) float64 {
	t.Helper()
	var sum float64
	for _, line := range strings.Split(exposition, "\n") {
		rest, ok := strings.CutPrefix(line, name+"{")
		if !ok {
			continue
		}
		end := strings.Index(rest, "} ")
		if end < 0 || !strings.Contains(rest[:end], labelSubstr) {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest[end+2:]), 64)
		if err != nil {
			t.Fatalf("metric %s has unparseable value in %q", name, line)
		}
		sum += v
	}
	return sum
}

// TestClusterModeWorkloadGating is the large-scale acceptance test for the
// workload families and cross-task correlation gating (DESIGN.md §16): a
// 2-shard daemon admits the 16 group-aggregate predictor tasks of a
// 1024-tenant colocation workload, then all 1024 tenant tasks — even
// indices gated on their group's aggregate, odd indices ungated as the
// control arm — and the gated half must sample measurably less than the
// control while the gates demonstrably arm on predictor violations.
// Selectivity-based retuning from the live sketches keeps working with a
// thousand hosted monitors, and malformed gate specs are rejected whole.
func TestClusterModeWorkloadGating(t *testing.T) {
	if testing.Short() {
		t.Skip("large cluster e2e")
	}
	const (
		tenants = 1024
		groups  = 16
		windows = 2048
		seed    = 7
		period  = "2ms"
	)
	// The reference set: admission thresholds come from the same family
	// the daemon's workload: agents serve, so each task's (T, err) target
	// matches its series by construction.
	set, err := volley.GenerateWorkload(volley.DefaultTenantColoWorkload(tenants, groups, windows, seed))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, done := startDaemon(t, ctx, options{
		interval:    time.Millisecond,
		maxInterval: 10,
		shards:      2,
		out:         io.Discard,
	})
	base := "http://" + addr

	family := fmt.Sprintf("tenants=%d&groups=%d&windows=%d&seed=%d&period=%s", tenants, groups, windows, seed, period)

	// Gating before the predictor exists is rejected.
	if code, body := httpDo(t, http.MethodPost, base+"/tasks", fmt.Sprintf(
		`{"name":"early","threshold":1,"err":0.05,"monitors":[{"id":"m","source":"workload:tenant?index=0&%s"}],`+
			`"gate":{"predictor":"agg-00"}}`, family)); code != http.StatusBadRequest {
		t.Fatalf("gate on unadmitted predictor = %d %s, want bad request", code, body)
	}

	// The 16 cheap group aggregates: always-on predictors with a short max
	// interval so bursts are caught quickly.
	for g := 0; g < groups; g++ {
		spec := fmt.Sprintf(
			`{"name":"agg-%02d","threshold":%g,"err":%g,"maxInterval":4,"monitors":[{"id":"m","source":"workload:tenantagg?group=%d&%s"}]}`,
			g, set.Aggregates[g].Threshold, set.Aggregates[g].Err, g, family)
		if code, body := httpDo(t, http.MethodPost, base+"/tasks", spec); code != http.StatusCreated {
			t.Fatalf("POST agg-%02d = %d %s", g, code, body)
		}
	}

	// All 1024 tenants: even indices gated on their group aggregate, odd
	// indices ungated (the control arm the savings are measured against).
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("tu-%04d", i)
		gate := ""
		if i%2 == 0 {
			name = fmt.Sprintf("tg-%04d", i)
			gate = fmt.Sprintf(`,"gate":{"predictor":"agg-%02d","relaxedInterval":40,"holdDown":10}`, i%groups)
		}
		spec := fmt.Sprintf(
			`{"name":%q,"threshold":%g,"err":%g,"monitors":[{"id":"m","source":"workload:tenant?index=%d&%s"}]%s}`,
			name, set.Series[i].Threshold, set.Series[i].Err, i, family, gate)
		if code, body := httpDo(t, http.MethodPost, base+"/tasks", spec); code != http.StatusCreated {
			t.Fatalf("POST %s = %d %s", name, code, body)
		}
	}

	// Gate chains are refused: tg-0000 is gated, so it cannot predict.
	if code, body := httpDo(t, http.MethodPost, base+"/tasks", fmt.Sprintf(
		`{"name":"chained","threshold":1,"err":0.05,"monitors":[{"id":"m","source":"workload:tenant?index=1&%s"}],`+
			`"gate":{"predictor":"tg-0000"}}`, family)); code != http.StatusBadRequest {
		t.Fatalf("gate chain admission = %d %s, want bad request", code, body)
	}

	// Let the cluster run until the ungated arm has a solid sample count and
	// a predictor has burst (the earliest aggregate violation is ~140 ms into
	// the workload's cycle, and a fast host admits everything sooner), then
	// compare arms: the gated half must sample measurably less.
	var metrics string
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, metrics = httpGet(t, base+"/metrics")
		if promLabeledSum(t, metrics, "volley_sampler_observations_total", `instance="tu-`) >= 3000 &&
			promValue(t, metrics, "volley_cluster_gate_arms_total") > 0 {
			break
		}
		if time.Now().After(deadline) {
			break // the assertions below say which of the two is missing
		}
		time.Sleep(50 * time.Millisecond)
	}
	ungated := promLabeledSum(t, metrics, "volley_sampler_observations_total", `instance="tu-`)
	gated := promLabeledSum(t, metrics, "volley_sampler_observations_total", `instance="tg-`)
	if ungated < 3000 {
		t.Fatalf("ungated tenants reached only %v of 3000 observations", ungated)
	}
	if gated <= 0 {
		t.Fatal("gated tenants never sampled")
	}
	if gated >= 0.75*ungated {
		t.Errorf("gated arm sampled %v vs ungated %v, want < 75%% of control", gated, ungated)
	}
	if arms := promValue(t, metrics, "volley_cluster_gate_arms_total"); arms <= 0 {
		t.Errorf("volley_cluster_gate_arms_total = %v, want > 0 (predictor violations must arm gates)", arms)
	}

	// Selectivity-based retuning straight from the live sketches still
	// works with a thousand hosted monitors; the monitor may need a few
	// more samples before a percentile is derivable.
	patchDeadline := time.Now().Add(30 * time.Second)
	for {
		code, body := httpDo(t, http.MethodPatch, base+"/tasks/tu-0001", `{"selectivity":5,"err":0.01}`)
		if code == http.StatusOK {
			if !strings.Contains(body, `"samples"`) {
				t.Errorf("PATCH response missing samples: %s", body)
			}
			break
		}
		if time.Now().After(patchDeadline) {
			t.Fatalf("PATCH /tasks/tu-0001 never succeeded, last = %d %s", code, body)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Evicting a predictor is allowed; its dependents stay admitted.
	if code, body := httpDo(t, http.MethodDelete, base+"/tasks/agg-00", ""); code != http.StatusNoContent {
		t.Fatalf("DELETE /tasks/agg-00 = %d %s", code, body)
	}
	_, body := httpGet(t, base+"/healthz")
	if !strings.Contains(body, `"tasks":`) {
		t.Fatalf("healthz missing tasks: %s", body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit")
	}
}
