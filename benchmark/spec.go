package main

import (
	"fmt"
	"time"

	"volley"
)

// The admission bodies mirror cmd/volleyd's POST /tasks request; the daemon
// is driven only through what an operator has, so the harness keeps its own
// copy of the wire shape rather than importing the daemon's types.
type taskBody struct {
	Name        string        `json:"name"`
	Threshold   float64       `json:"threshold"`
	Err         float64       `json:"err"`
	MaxInterval int           `json:"maxInterval,omitempty"`
	Monitors    []monitorBody `json:"monitors"`
	Gate        *gateBody     `json:"gate,omitempty"`
}

type monitorBody struct {
	ID     string `json:"id"`
	Source string `json:"source"`
}

type gateBody struct {
	Predictor       string `json:"predictor"`
	RelaxedInterval int    `json:"relaxedInterval"`
	HoldDown        int    `json:"holdDown"`
}

// Probe parameters, shared by every workload. The window period is
// deliberately incommensurate with every tick interval used below, so the
// phase between ticks and windows averages out inside one run.
const (
	probeNodes   = 64
	probeWindows = 1400
	probePeriod  = 23 * time.Millisecond
	maxInterval  = 8 // of every adaptive task
	probePrefix  = "probe-"
	canaryPrefix = "canary-"
)

// workload is one traffic mix: the daemon processes to start and the tasks
// to admit on them.
type workload struct {
	name string
	// closedLoop workloads run the tick loop back to back (the ticker is
	// always ready); open-loop workloads are paced by interval.
	closedLoop bool
	interval   time.Duration
	// procs is the daemons' GOMAXPROCS; 0 means nproc.
	procs int
	// shards lists the shard IDs of a networked deployment; empty means one
	// cluster-mode daemon.
	shards []string
	// background builds the workload's own tasks at the given scale divisor
	// (1 for the live run, 4 for the traced replay).
	background func(seed int64, div int) ([]taskBody, error)
	// probeMaxInterval is the probes' maxInterval.
	probeMaxInterval int
	// httpProbes has the daemon read the probes over HTTP from the harness
	// rather than from its own workload: sources.
	httpProbes bool
	// gatedArms reports whether background tasks come in a gated and an
	// ungated arm (named "tg-" and "tu-").
	gatedArms bool
}

var workloads = []workload{
	{
		name:       "fullrate-wide",
		closedLoop: true,
		interval:   time.Millisecond,
		procs:      0,
		background: fullrateWide,
		// Full rate for the probes too. In this closed loop a tick is as long
		// as the host is slow, so how many ticks a 23 ms window spans, and
		// with it how far an adaptive probe relaxes, would follow the host.
		probeMaxInterval: 1,
	},
	{
		name:             "tenants-gated",
		interval:         20 * time.Millisecond,
		procs:            1,
		background:       tenantsGated,
		gatedArms:        true,
		probeMaxInterval: maxInterval,
	},
	{
		name:             "ddos-http",
		interval:         10 * time.Millisecond,
		procs:            1,
		httpProbes:       true,
		probeMaxInterval: maxInterval,
		background:       func(int64, int) ([]taskBody, error) { return nil, nil },
	},
	{
		name:             "shards-replicated",
		interval:         20 * time.Millisecond,
		procs:            1,
		shards:           []string{"a", "b"},
		background:       shardsReplicated,
		probeMaxInterval: maxInterval,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const tenantWindows = 512

func tenantSource(kind string, key string, idx, tenants, groups int, seed int64) string {
	return fmt.Sprintf("workload:%s?%s=%d&tenants=%d&groups=%d&windows=%d&seed=%d&period=50ms",
		kind, key, idx, tenants, groups, tenantWindows, seed)
}

// fullrateWide is 8 tasks of 1024 tenant monitors each, with maxInterval 1 so
// every monitor samples on every tick, and thresholds 4x the series' own, out
// of reach of the 2.5x bursts: at 1.5x a thousand local violations a second
// each made its coordinator poll all 1024 monitors, and the workload meant to
// isolate the sample path spent a data-dependent third of its time polling.
func fullrateWide(seed int64, div int) ([]taskBody, error) {
	const nTasks, groups = 8, 16
	per := 1024 / div
	tenants := nTasks * per
	set, err := volley.GenerateWorkload(volley.DefaultTenantColoWorkload(tenants, groups, tenantWindows, seed))
	if err != nil {
		return nil, err
	}
	tasks := make([]taskBody, nTasks)
	for t := range tasks {
		tb := taskBody{Name: fmt.Sprintf("wide-%d", t), Err: 0.05, MaxInterval: 1}
		for j := 0; j < per; j++ {
			i := t*per + j
			tb.Threshold += 4 * set.Series[i].Threshold
			tb.Monitors = append(tb.Monitors, monitorBody{
				ID:     fmt.Sprintf("m%04d", j),
				Source: tenantSource("tenant", "index", i, tenants, groups, seed),
			})
		}
		tasks[t] = tb
	}
	return tasks, nil
}

// tenantsGated is 16 group-aggregate predictor tasks plus 2048 single-monitor
// tenant tasks; even tenants are gated on their group's aggregate, odd ones
// are not, so the two arms differ only in the gate.
func tenantsGated(seed int64, div int) ([]taskBody, error) {
	const groups = 16
	tenants := 2048 / div
	set, err := volley.GenerateWorkload(volley.DefaultTenantColoWorkload(tenants, groups, tenantWindows, seed))
	if err != nil {
		return nil, err
	}
	tasks := make([]taskBody, 0, groups+tenants)
	for g, a := range set.Aggregates {
		tasks = append(tasks, taskBody{
			Name: fmt.Sprintf("agg-%02d", g), Threshold: a.Threshold, Err: a.Err, MaxInterval: maxInterval,
			Monitors: []monitorBody{{ID: "m", Source: tenantSource("tenantagg", "group", g, tenants, groups, seed)}},
		})
	}
	for i, s := range set.Series {
		tb := taskBody{
			Name: fmt.Sprintf("tu-%04d", i), Threshold: s.Threshold, Err: s.Err, MaxInterval: maxInterval,
			Monitors: []monitorBody{{ID: "m", Source: tenantSource("tenant", "index", i, tenants, groups, seed)}},
		}
		if i%2 == 0 {
			tb.Name = fmt.Sprintf("tg-%04d", i)
			tb.Gate = &gateBody{Predictor: fmt.Sprintf("agg-%02d", i%groups), RelaxedInterval: 40, HoldDown: 10}
		}
		tasks = append(tasks, tb)
	}
	return tasks, nil
}

// shardsReplicated is 128 tasks of 16 tenant monitors each, spread over the
// shards by the placement ring.
func shardsReplicated(seed int64, div int) ([]taskBody, error) {
	const per, groups = 16, 16
	nTasks := 128 / div
	tenants := nTasks * per
	set, err := volley.GenerateWorkload(volley.DefaultTenantColoWorkload(tenants, groups, tenantWindows, seed))
	if err != nil {
		return nil, err
	}
	tasks := make([]taskBody, nTasks)
	for t := range tasks {
		tb := taskBody{Name: fmt.Sprintf("rep-%03d", t), Err: 0.05, MaxInterval: maxInterval}
		for j := 0; j < per; j++ {
			i := t*per + j
			tb.Threshold += set.Series[i].Threshold
			tb.Monitors = append(tb.Monitors, monitorBody{
				ID:     fmt.Sprintf("m%02d", j),
				Source: tenantSource("tenant", "index", i, tenants, groups, seed),
			})
		}
		tasks[t] = tb
	}
	return tasks, nil
}

// probe is one node of the ground-truth component every workload carries: a
// single-monitor task watching a series whose every violation the harness
// can date.
type probe struct {
	values    []float64
	threshold float64
	err       float64
	// source is the in-daemon workload: source serving the series; empty for
	// probes the daemon reads over HTTP from the harness.
	source string
}

// probeSet generates the workload's probes, with independent violation
// schedules: detection latency is mostly the phase between a violation's
// onset and the next sample, so a run needs hundreds of independent onsets
// for its median to repeat.
//
// HTTP probes (ddos-http) are entropy-flow nodes, each a one-node family of
// its own seed: inside one family the attack epochs hit every attacked node
// in the same windows. The threshold sits at the (100-2.4)-th percentile of
// the node's own series, so about half of its attack windows (8 in every
// ~168) violate. The harness generates and serves them, so their number
// costs the daemon's set-up nothing.
//
// In-daemon probes (the other workloads) must be generated by the daemon
// during admission, and an entropy node costs ~20 us per window; they are
// tenant-colocation series instead, a hundred times cheaper, in one family
// with as many groups as tenants so that no two burst together, each with
// its own tier's threshold and allowance.
func probeSet(w workload, seed int64, div int) ([]probe, error) {
	if w.httpProbes {
		out := make([]probe, probeNodes/div)
		for i := range out {
			set, err := volley.GenerateWorkload(volley.DefaultEntropyFlowWorkload(1, probeWindows, seed*1009+int64(i)))
			if err != nil {
				return nil, fmt.Errorf("probe %d: %w", i, err)
			}
			p := probe{values: set.Series[0].Values, err: set.Series[0].Err}
			if p.threshold, err = volley.ThresholdForSelectivity(p.values, 2.4); err != nil {
				return nil, fmt.Errorf("probe %d: %w", i, err)
			}
			out[i] = p
		}
		return out, nil
	}
	n := 2 * probeNodes / div
	set, err := volley.GenerateWorkload(volley.DefaultTenantColoWorkload(n, n, probeWindows, seed+7777))
	if err != nil {
		return nil, err
	}
	out := make([]probe, n)
	for i, s := range set.Series {
		out[i] = probe{
			values: s.Values, threshold: s.Threshold, err: s.Err,
			source: fmt.Sprintf("workload:tenant?index=%d&tenants=%d&groups=%d&windows=%d&seed=%d&period=%s", i, n, n, probeWindows, seed+7777, probePeriod),
		}
	}
	return out, nil
}

// probeTasks admits one single-monitor task per probe; truthURL serves the
// probes that have no in-daemon source.
func probeTasks(probes []probe, maxInterval int, truthURL string) []taskBody {
	tasks := make([]taskBody, len(probes))
	for i, p := range probes {
		source := p.source
		if source == "" {
			source = fmt.Sprintf("%s/s/%d", truthURL, i)
		}
		tasks[i] = taskBody{
			Name: probeName(i), Threshold: p.threshold, Err: p.err, MaxInterval: maxInterval,
			Monitors: []monitorBody{{ID: "m", Source: source}},
		}
	}
	return tasks
}

func probeName(i int) string { return fmt.Sprintf("%s%03d", probePrefix, i) }

// Calibration parameters. The period is incommensurate with every tick
// interval, so over a run the ticks fall at every phase of a window.
const (
	calPrefix  = "cal-"
	calSeed    = 424242
	calWindows = 1400
	calPeriod  = 7 * time.Millisecond
)

// calTasks are always-alerting maxInterval-1 tasks over a fast in-daemon
// series the harness can regenerate. Each tick prints an alert line carrying
// the sampled value and the daemon's wall time; the value names the window it
// was read from, so the lines together date the epoch every workload: source
// of that daemon counts its windows from (estimateEpoch). Several are
// admitted so that, in shard mode, the ring gives every shard at least one.
func calTasks(n int) []taskBody {
	tasks := make([]taskBody, n)
	for i := range tasks {
		tasks[i] = taskBody{
			Name: fmt.Sprintf("%s%d", calPrefix, i), Threshold: -1e18, Err: 0.01, MaxInterval: 1,
			Monitors: []monitorBody{{ID: "m", Source: fmt.Sprintf("workload:entropy?index=0&nodes=1&windows=%d&seed=%d&period=%s", calWindows, calSeed, calPeriod)}},
		}
	}
	return tasks
}

// calIndex maps each value of the calibration series to its window. Values
// that occur twice name no window and are left out.
func calIndex() (map[float64]int, error) {
	set, err := volley.GenerateWorkload(volley.DefaultEntropyFlowWorkload(1, calWindows, calSeed))
	if err != nil {
		return nil, err
	}
	index, seen := make(map[float64]int), make(map[float64]bool)
	for i, v := range set.Series[0].Values {
		if seen[v] {
			delete(index, v)
			continue
		}
		seen[v], index[v] = true, i
	}
	return index, nil
}

// canaryTasks are never-alerting maxInterval-1 tasks sampled from the
// harness: each GET is one completed tick of the daemon hosting the canary.
// Several are admitted so that, in shard mode, the ring gives every shard at
// least one.
func canaryTasks(n int, truthURL string) []taskBody {
	tasks := make([]taskBody, n)
	for i := range tasks {
		name := fmt.Sprintf("%s%d", canaryPrefix, i)
		tasks[i] = taskBody{
			Name: name, Threshold: 1e18, Err: 0.01, MaxInterval: 1,
			Monitors: []monitorBody{{ID: "m", Source: fmt.Sprintf("%s/c/%d", truthURL, i)}},
		}
	}
	return tasks
}

func countMonitors(tasks []taskBody) int {
	n := 0
	for _, t := range tasks {
		n += len(t.Monitors)
	}
	return n
}
