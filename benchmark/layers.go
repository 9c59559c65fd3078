package main

import (
	"fmt"
	"io"
	"time"

	"volley"
	"volley/internal/cluster"
	"volley/internal/coord"
	"volley/internal/transport"
)

// Layers the in-process replay never reaches - the wire codec, snapshot
// frames, ring placement - or reaches only inside a bigger span are timed by
// calling them directly. Each is a fixed number of calls, timed as a whole:
// these are budget entries, not gated numbers, and a testing.Benchmark per
// layer would spend a second on each.

// timed runs fn n times and returns nanoseconds per call.
func timed(n int, fn func(i int)) float64 {
	fn(0) // first call pays for lazily built state
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// directLayers fills in the directly timed per-layer metrics and returns the
// first error any layer reported.
func directLayers(L map[string]metric) error {
	var first error
	must := func(err error) {
		if err != nil && first == nil {
			first = fmt.Errorf("direct layer timing: %w", err)
		}
	}
	put := func(name string, v float64, unit string, n int) { L[name] = metric{v, unit, n} }

	// One adaptive-sampler observation on a signal that wanders below its
	// threshold.
	sampler, err := volley.NewSampler(volley.SamplerConfig{Threshold: 100, Err: 0.01, MaxInterval: 8})
	if err != nil {
		return err
	}
	n := 200_000
	put("core.observe_ns", timed(n, func(i int) { sampler.Observe(float64(50 + i%17)) }), "ns", n)

	sketch, err := volley.NewQuantileSketch([]float64{0.75, 0.9, 0.95, 0.98, 0.99})
	if err != nil {
		return err
	}
	put("stats.sketch_observe_ns", timed(n, func(i int) { sketch.Observe(float64((i * 7919) % 1000)) }), "ns", n)

	harness, err := coord.NewRebalanceHarness(1024)
	if err != nil {
		return err
	}
	harness.Rebalance() // warm scratch and donor hysteresis
	n = 200
	put("coord.rebalance_ns_1024", timed(n, func(int) { harness.Rebalance() }), "ns", n)

	dedup := volley.NewAlertRegistry(volley.AlertConfig{Node: "bench", Metrics: volley.NewMetrics()})
	dedup.Raise("task", 0, 100)
	n = 200_000
	put("alerts.raise_dedup_ns", timed(n, func(i int) { dedup.Raise("task", time.Duration(i), 100) }), "ns", n)
	cycle := volley.NewAlertRegistry(volley.AlertConfig{Node: "bench", Metrics: volley.NewMetrics(), History: io.Discard})
	n = 20_000
	put("alerts.open_resolve_ns", timed(n, func(i int) {
		cycle.Raise("task", time.Duration(i), 100)
		cycle.Clear("task", time.Duration(i), 10)
	}), "ns", n)

	// A 16-message batch of yield reports, the steady coordinator ingest.
	msgs := make([]transport.Message, 16)
	for i := range msgs {
		msgs[i] = transport.Message{
			Kind: transport.KindYieldReport, Task: "cpu-util", From: fmt.Sprintf("cpu-util/mon/m%02d", i),
			Time: 90 * time.Second, Reduction: 0.21, Needed: 0.07, Interval: 2.5, Seq: 1<<40 + uint64(i),
		}
	}
	var frame []byte
	n = 20_000
	put("transport.codec_encode_ns", timed(n, func(int) {
		frame, err = transport.AppendBatchFrame(frame[:0], msgs)
		must(err)
	})/float64(len(msgs)), "ns", n)
	put("transport.codec_decode_ns", timed(n, func(int) {
		must(transport.DecodeFrame(frame, func(transport.Message) {}))
	})/float64(len(msgs)), "ns", n)
	put("transport.codec_bytes_per_msg", float64(len(frame))/float64(len(msgs)), "B", 1)

	// The allowance snapshot of one 16-monitor task, as replicated between
	// shards.
	state := coord.AllowanceState{
		Task: "rep-000", Epoch: 7, Err: 0.05, Now: 90 * time.Second, Ticks: 4500,
		Assignments: map[string]float64{}, LastSeen: map[string]time.Duration{},
	}
	for i := 0; i < 16; i++ {
		addr := fmt.Sprintf("rep-000/mon/m%02d", i)
		state.Assignments[addr] = 0.05 / 16
		state.LastSeen[addr] = 90 * time.Second
	}
	var snap []byte
	n = 5_000
	put("cluster.snapshot_encode_ns", timed(n, func(int) {
		snap, err = cluster.EncodeSnapshot(state)
		must(err)
	}), "ns", n)
	put("cluster.snapshot_decode_ns", timed(n, func(int) {
		_, err = cluster.DecodeSnapshot(snap)
		must(err)
	}), "ns", n)
	put("cluster.snapshot_bytes_per_monitor", float64(len(snap))/16, "B", 1)

	ring := volley.NewRing(0)
	ring.Add("a")
	ring.Add("b")
	names := make([]string, 128)
	for i := range names {
		names[i] = fmt.Sprintf("rep-%03d", i)
	}
	n = 200_000
	put("cluster.ring_place_ns", timed(n, func(i int) { ring.Place(names[i%len(names)]) }), "ns", n)

	// What a daemon pays at admission to generate a family: 256 tenants of
	// 512 windows.
	n = 3
	put("workload.gen_series_ms", timed(n, func(i int) {
		_, err = volley.GenerateWorkload(volley.DefaultTenantColoWorkload(256, 16, tenantWindows, int64(i)))
		must(err)
	})/1e6, "ms", n)
	return first
}
