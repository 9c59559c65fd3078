package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one measured value. N is how many samples it summarises (1 for
// a ratio of counters).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// liveResult is what one run of a workload against real daemons yields.
type liveResult struct {
	e2e       map[string]metric
	layer     map[string]metric
	attempted int
	failed    int
	// problems lists every output check that failed; any entry makes the
	// run incorrect.
	problems []string
}

func (r *liveResult) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// liveConfig is how long and how often a live run measures.
type liveConfig struct {
	bin     string
	seed    int64
	warm    time.Duration
	window  time.Duration
	setups  int // the daemons are set up this many times; the last set-up is measured
	procs   int // GOMAXPROCS of every daemon; 0 leaves the workload's own
	timeout time.Duration
}

// clusterView is the part of a shard's /cluster payload the harness reads.
type clusterView struct {
	CatalogLive int `json:"catalogLive"`
	Owned       []struct {
		Name     string `json:"name"`
		Recovery *struct {
			Warm bool `json:"warm"`
		} `json:"recovery"`
	} `json:"owned"`
	ColdStarts uint64 `json:"coldStarts"`
}

// deployment is one set-up of a workload: its daemons and what they host.
type deployment struct {
	daemons []*daemon
	// canary[i] is the index of a canary task daemon i hosts; monitors[i]
	// how many monitors it hosts in all.
	canary   []int
	monitors []int
	owner    map[string]int // task → index of the daemon hosting it
	setup    time.Duration  // first exec → every task admitted and every canary ticking
	admit    time.Duration  // the admission calls alone
	calls    int            // control-plane calls made
}

// killAll is the exit path of last resort.
func (dp *deployment) killAll() {
	for _, d := range dp.daemons {
		d.kill()
		_ = d.wait() // a SIGKILLed child always reports an error
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}

// poll calls cond every millisecond until it reports done.
func poll(ctx context.Context, what string, cond func() (bool, error)) error {
	for {
		done, err := cond()
		if err != nil {
			return fmt.Errorf("waiting for %s: %w", what, err)
		}
		if done {
			return nil
		}
		if err := sleepCtx(ctx, time.Millisecond); err != nil {
			return fmt.Errorf("waiting for %s: %w", what, err)
		}
	}
}

// deploy starts the workload's daemons, admits every task and waits until
// every canary ticks.
func deploy(ctx context.Context, w workload, bin string, procs int, tasks []taskBody, ts *truthServer) (dp *deployment, err error) {
	dp = &deployment{}
	defer func() {
		if err != nil {
			dp.killAll()
		}
	}()
	if procs == 0 {
		procs = w.procs
	}
	if procs == 0 {
		procs = runtime.NumCPU()
	}
	begin := time.Now()
	if len(w.shards) == 0 {
		addrs, err := freeAddrs(1)
		if err != nil {
			return dp, err
		}
		d, err := startDaemon(bin, procs, "-shards", "1", "-interval", w.interval.String(), "-listen", addrs[0])
		if err != nil {
			return dp, err
		}
		d.httpAddr = addrs[0]
		dp.daemons = append(dp.daemons, d)
	} else {
		addrs, err := freeAddrs(2 * len(w.shards))
		if err != nil {
			return dp, err
		}
		for i, id := range w.shards {
			var peers []string
			for j, other := range w.shards {
				if j != i {
					peers = append(peers, other+"="+addrs[2*j+1])
				}
			}
			d, err := startDaemon(bin, procs, "-shard-id", id, "-listen", addrs[2*i], "-peer-listen", addrs[2*i+1],
				"-peers", strings.Join(peers, ","), "-interval", w.interval.String(),
				"-beacon-every", "2", "-suspect-after", "8", "-dead-after", "16", "-snapshot-every", "5")
			if err != nil {
				return dp, err
			}
			d.id, d.httpAddr = id, addrs[2*i]
			dp.daemons = append(dp.daemons, d)
		}
	}
	for _, d := range dp.daemons {
		if err := d.waitReady(ctx); err != nil {
			return dp, err
		}
	}
	admitStart := time.Now()
	for i, t := range tasks {
		if err := ctx.Err(); err != nil {
			return dp, err
		}
		if err := dp.daemons[i%len(dp.daemons)].admit(t); err != nil {
			return dp, err
		}
	}
	dp.admit = time.Since(admitStart)
	dp.calls = len(tasks)

	// Who hosts what. A cluster-mode daemon hosts everything; shards own
	// what the ring gives them once the catalog has gossiped.
	perTask := make(map[string]int, len(tasks))
	for _, t := range tasks {
		perTask[t.Name] = len(t.Monitors)
	}
	dp.canary = make([]int, len(dp.daemons))
	dp.monitors = make([]int, len(dp.daemons))
	dp.owner = make(map[string]int, len(tasks))
	if len(w.shards) == 0 {
		dp.monitors[0] = countMonitors(tasks)
	} else {
		err := poll(ctx, "the shards to own every task", func() (bool, error) {
			owned := 0
			for i, d := range dp.daemons {
				var cv clusterView
				dp.calls++
				if err := d.getJSON("/cluster", &cv); err != nil {
					return false, err
				}
				if cv.CatalogLive != len(tasks) {
					return false, nil
				}
				dp.canary[i], dp.monitors[i] = -1, 0
				for _, o := range cv.Owned {
					dp.monitors[i] += perTask[o.Name]
					dp.owner[o.Name] = i
					var k int
					if _, err := fmt.Sscanf(o.Name, canaryPrefix+"%d", &k); err == nil && dp.canary[i] < 0 {
						dp.canary[i] = k
					}
				}
				owned += len(cv.Owned)
			}
			return owned == len(tasks), nil
		})
		if err != nil {
			return dp, err
		}
		for i, k := range dp.canary {
			if k < 0 {
				return dp, fmt.Errorf("shard %s owns none of the canaries", dp.daemons[i].id)
			}
		}
	}
	base := make([]int, len(dp.canary))
	for i, k := range dp.canary {
		base[i] = ts.canaryCount(k)
	}
	err = poll(ctx, "every canary to tick", func() (bool, error) {
		for i, k := range dp.canary {
			if ts.canaryCount(k) < base[i]+2 {
				return false, nil
			}
		}
		return true, nil
	})
	dp.setup = time.Since(begin)
	return dp, err
}

// shutdown SIGTERMs every live daemon; each must exit 0.
func (dp *deployment) shutdown(r *liveResult) {
	for _, d := range dp.daemons {
		if d.killed {
			continue
		}
		r.attempted++
		if err := d.terminate(); err != nil {
			r.failed++
			r.problemf("daemon %q did not exit 0 on SIGTERM: %v; stderr: %s", d.id, err, strings.TrimSpace(d.stderr.String()))
		}
	}
}

// runLive runs one workload against real daemons and measures it.
func runLive(ctx context.Context, w workload, cfg liveConfig) (res *liveResult, err error) {
	ctx, cancel := context.WithTimeout(ctx, cfg.timeout)
	defer cancel()
	res = &liveResult{e2e: map[string]metric{}, layer: map[string]metric{}}

	probes, err := probeSet(w, cfg.seed, 1)
	if err != nil {
		return nil, err
	}
	background, err := w.background(cfg.seed, 1)
	if err != nil {
		return nil, err
	}
	ts, err := startTruthServer(probes)
	if err != nil {
		return nil, err
	}
	defer ts.close()
	// One canary and one calibration task suffice for a single daemon; with
	// shards, eight of each make it all but certain the ring gives every
	// shard one (deploy fails loudly otherwise).
	nCanary := 1
	if len(w.shards) > 0 {
		nCanary = 8
	}
	tasks := append(canaryTasks(nCanary, ts.url()), background...)
	if !w.httpProbes {
		tasks = append(tasks, calTasks(nCanary)...)
	}
	tasks = append(tasks, probeTasks(probes, w.probeMaxInterval, ts.url())...)

	// Set-up, several times over: only the last deployment is measured, the
	// earlier ones exist to make setup_s a median.
	var setups, admits []float64
	var dp *deployment
	for i := 0; i < cfg.setups; i++ {
		dp, err = deploy(ctx, w, cfg.bin, cfg.procs, tasks, ts)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		res.attempted += dp.calls
		setups = append(setups, dp.setup.Seconds())
		admits = append(admits, ms(dp.admit)/float64(len(tasks)))
		if i < cfg.setups-1 {
			dp.shutdown(res)
		}
	}
	defer dp.killAll()
	res.e2e["setup_s"] = metric{median(setups), "s", len(setups)}
	res.layer["volleyd.admit_ms_per_task"] = metric{median(admits), "ms", len(admits)}

	if err := sleepCtx(ctx, cfg.warm); err != nil {
		return nil, err
	}
	win, err := measureWindow(ctx, w, dp, ts, cfg.window, res)
	if err != nil {
		return nil, err
	}
	// Every workload reports every per-layer metric; these two have nothing
	// to measure without shards.
	res.layer["cluster.failover_s"] = metric{0, "s", 0}
	res.layer["cluster.warm_recovery_share"] = metric{0, "ratio", 0}
	if len(w.shards) > 0 {
		if err := failover(ctx, dp, len(tasks), res); err != nil {
			return nil, err
		}
	}
	dp.shutdown(res)

	if err := detection(w, dp, ts, probes, win, res); err != nil {
		return nil, err
	}
	for _, d := range dp.daemons {
		lines, bad, _ := d.counts()
		res.attempted += lines
		if bad > 0 {
			res.failed += bad
			res.problemf("daemon %q printed %d stdout lines that are not JSON", d.id, bad)
		}
	}
	if bad := ts.badGets(); bad > 0 {
		res.failed += bad
		res.problemf("%d agent reads asked for a source the harness does not serve", bad)
	}
	return res, nil
}

// window is the measured interval of a live run, as offsets from the truth
// epoch, with the tick period seen in it.
type window struct {
	from, to time.Duration
	tick     time.Duration
}

// snapshot is what the harness reads from one daemon at one edge of the
// measured window.
type snapshot struct {
	scrape scrape
	bytes  int
	took   time.Duration
	mem    memstats
	alerts int
}

func takeSnapshot(d *daemon) (snapshot, error) {
	var s snapshot
	var err error
	if s.scrape, s.bytes, s.took, err = d.scrapeMetrics(); err != nil {
		return s, err
	}
	if s.mem, err = d.memstats(); err != nil {
		return s, err
	}
	return s, nil
}

// cycleTicks is the daemon's own longest period: monitors report yields every
// 100 ticks (and heartbeat every 10, shards beacon every 2 and snapshot every
// 5), so tick cost repeats with this period. Rates are taken over whole
// cycles; a window cut mid-cycle would gain or lose a rebalance burst and
// read several percent differently from one run to the next.
const cycleTicks = 100

// measureWindow takes the two scrapes, never one in between: a scrape of a
// wide daemon is megabytes and would itself be load. CPU, time and the tick
// count are marked from inside the canary's GET handler every cycleTicks
// ticks, so the scrapes' own cost stays outside them.
func measureWindow(ctx context.Context, w workload, dp *deployment, ts *truthServer, length time.Duration, res *liveResult) (window, error) {
	n := len(dp.daemons)
	before, after := make([]snapshot, n), make([]snapshot, n)
	for i, d := range dp.daemons {
		s, err := takeSnapshot(d)
		if err != nil {
			return window{}, err
		}
		_, _, s.alerts = d.counts()
		before[i] = s
	}
	meters := make([]*meter, n)
	for i, d := range dp.daemons {
		meters[i] = ts.startMeter(dp.canary[i], cycleTicks, d.procStat)
	}
	from := ts.since()
	if err := sleepCtx(ctx, length); err != nil {
		return window{}, err
	}
	to := ts.since()
	var rss float64
	marks := make([][]mark, n)
	for i, d := range dp.daemons {
		var err error
		if marks[i], err = ts.stopMeter(meters[i]); err != nil {
			return window{}, err
		}
		if len(marks[i]) < 2 {
			return window{}, fmt.Errorf("daemon %q completed no whole cycle of %d ticks in %v", d.id, cycleTicks, length)
		}
		r, err := d.rssBytes()
		if err != nil {
			return window{}, err
		}
		rss += r
	}
	for i, d := range dp.daemons {
		_, _, alerts := d.counts()
		s, err := takeSnapshot(d)
		if err != nil {
			return window{}, err
		}
		s.alerts = alerts
		after[i] = s
	}
	res.attempted += 4 * n // two scrapes and two /debug/vars reads per daemon

	var monTicks, monTickRate, cpu, cpuPerTick, sys, faults, samples, scrapedMonTicks, scrapedTicks, ticks, dropped, expected float64
	var tickGaps []time.Duration
	var monitors int
	for i := range dp.daemons {
		first, last := marks[i][0], marks[i][len(marks[i])-1]
		t := float64((len(marks[i]) - 1) * cycleTicks)
		span := (last.at - first.at).Seconds()
		ticks += t
		monTicks += t * float64(dp.monitors[i])
		monitors += dp.monitors[i]
		cpu += last.cpu - first.cpu
		// The gated rates are medians over the cycles, not totals: a stall
		// of the host that hits one cycle then moves one sample, not the
		// result.
		var cycleSecs, cycleCPU []float64
		for k := 1; k < len(marks[i]); k++ {
			cycleSecs = append(cycleSecs, (marks[i][k].at - marks[i][k-1].at).Seconds())
			cycleCPU = append(cycleCPU, marks[i][k].cpu-marks[i][k-1].cpu)
		}
		monTickRate += cycleTicks * float64(dp.monitors[i]) / median(cycleSecs)
		cpuPerTick += median(cycleCPU) / cycleTicks
		sys += last.sys - first.sys
		faults += last.faults - first.faults
		tickGaps = append(tickGaps, gaps(ts.canaryTimes(dp.canary[i], from, to))...)

		key := fmt.Sprintf(`volley_sampler_observations_total{instance="%s%d/mon/m"}`, canaryPrefix, dp.canary[i])
		c0, c1 := before[i].scrape[key], after[i].scrape[key]
		if c1 <= c0 {
			res.problemf("canary count did not increase between scrapes of daemon %q: %v then %v", dp.daemons[i].id, c0, c1)
		}
		scrapedTicks += c1 - c0
		scrapedMonTicks += (c1 - c0) * float64(dp.monitors[i])
		samples += after[i].scrape.family("volley_sampler_observations_total") - before[i].scrape.family("volley_sampler_observations_total")

		if !w.closedLoop {
			// One tick of slack: the marks cut the ticker's train at an
			// arbitrary phase.
			want := math.Floor(span/w.interval.Seconds()) - 1
			expected += want
			dropped += math.Max(0, want-t)
		}
	}
	if scrapedMonTicks == 0 {
		return window{}, fmt.Errorf("no ticks seen between the scrapes")
	}

	cycles := int(ticks) / cycleTicks
	res.layer["volleyd.monitor_ticks_per_s"] = metric{monTickRate, "1/s", cycles}
	res.layer["volleyd.cpu_us_per_monitor_tick"] = metric{cpuPerTick / float64(monitors) * 1e6, "us", cycles}
	res.layer["volleyd.cpu_sys_share"] = metric{sys / cpu, "ratio", 1}
	res.layer["volleyd.page_faults_per_monitor_tick"] = metric{faults / monTicks, "count", 1}
	res.e2e["rss_bytes_per_monitor"] = metric{rss / float64(monitors), "B", 1}
	res.e2e["sampling_ratio"] = metric{samples / scrapedMonTicks, "ratio", 1}

	win := window{from: from, to: to, tick: time.Duration(float64(monitors) / monTickRate * float64(time.Second))}
	liveLayers(w, dp, ts, win, before, after, liveTotals{
		monTickRate: monTickRate, scrapedMonTicks: scrapedMonTicks, scrapedTicks: scrapedTicks,
		samples: samples, expected: expected, dropped: dropped,
	}, tickGaps, res)
	return win, nil
}

// liveTotals are the window's sums over every daemon. The scraped figures
// come from the canary counters inside the two scrapes, the others from the
// canary GETs stamped between the window's inner edges.
type liveTotals struct {
	monTickRate, scrapedMonTicks, scrapedTicks float64
	samples, expected, dropped                 float64
}

// liveLayers derives the per-layer numbers from the live daemons' counters:
// deltas between the two scrapes, the memstats, and the GET stamps.
func liveLayers(w workload, dp *deployment, ts *truthServer, win window, before, after []snapshot,
	t liveTotals, tickGaps []time.Duration, res *liveResult) {
	elapsed := (win.to - win.from).Seconds()
	delta := func(name string) float64 {
		var sum float64
		for i := range after {
			sum += after[i].scrape.family(name) - before[i].scrape.family(name)
		}
		return sum
	}
	last := func(name string) float64 {
		var sum float64
		for i := range after {
			sum += after[i].scrape.family(name)
		}
		return sum
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var mallocs, allocBytes, pauseNs, heap, scrapeMs, scrapeBytes, alerts, monitors float64
	for i := range after {
		mallocs += float64(after[i].mem.Mallocs - before[i].mem.Mallocs)
		allocBytes += float64(after[i].mem.TotalAlloc - before[i].mem.TotalAlloc)
		pauseNs += float64(after[i].mem.PauseTotalNs - before[i].mem.PauseTotalNs)
		heap += float64(after[i].mem.HeapInuse)
		scrapeMs += ms(after[i].took)
		scrapeBytes += float64(after[i].bytes)
		alerts += float64(after[i].alerts - before[i].alerts)
		monitors += float64(dp.monitors[i])
	}
	n := float64(len(after))
	L := res.layer
	one := func(name string, v float64, unit string) { L[name] = metric{v, unit, 1} }
	// The scrapes bracket the window rather than coincide with it, so
	// counter deltas are normalised by the ticks the same scrapes saw.
	scrapedSecs := t.scrapedMonTicks / t.monTickRate
	one("volleyd.allocs_per_monitor_tick", mallocs/t.scrapedMonTicks, "count")
	res.e2e["alloc_bytes_per_monitor_tick"] = metric{allocBytes / t.scrapedMonTicks, "B", 1}
	one("volleyd.gc_pause_ms_per_s", pauseNs/1e6/scrapedSecs, "ms/s")
	one("volleyd.heap_bytes_per_monitor", heap/monitors, "B")
	one("volleyd.alert_lines_per_s", alerts/elapsed, "1/s")
	one("volleyd.dropped_tick_share", ratio(t.dropped, t.expected), "ratio")
	one("coord.local_violations_per_s", delta("volley_cluster_local_violations")/scrapedSecs, "1/s")
	one("coord.global_alerts_per_s", delta("volley_cluster_global_alerts")/scrapedSecs, "1/s")
	raised, deduped := delta("volley_alerts_raised_total"), delta("volley_alerts_deduped_total")
	one("alerts.raised_per_s", raised/scrapedSecs, "1/s")
	one("alerts.dedup_ratio", ratio(raised, raised+deduped), "ratio")
	one("correlation.gate_arms_per_s", delta("volley_cluster_gate_arms_total")/scrapedSecs, "1/s")
	one("monitor.samples_per_tick", t.samples/t.scrapedTicks, "count")
	one("core.grows_per_s", delta("volley_sampler_interval_grows_total")/scrapedSecs, "1/s")
	one("core.resets_per_s", delta("volley_sampler_interval_resets_total")/scrapedSecs, "1/s")
	one("task.sketch_bytes_per_monitor", ratio(last("volley_series_resident_bytes"), last("volley_sketch_series")), "B")
	one("stats.sketch_fallback_share", ratio(last("volley_sketch_gk_mode_series"), last("volley_sketch_series")), "ratio")
	one("obs.scrape_ms", scrapeMs/n, "ms")
	one("obs.scrape_bytes", scrapeBytes/n, "B")

	sent, wire := delta("volley_transport_msgs_sent_total"), delta("volley_transport_bytes_sent_total")
	one("transport.msgs_per_tick", sent/t.scrapedTicks, "count")
	one("transport.wire_bytes_per_msg", ratio(wire, sent), "B")
	one("transport.batch_ratio", ratio(delta("volley_transport_frames_batched_total"), sent), "ratio")
	one("transport.wire_bytes_per_monitor_tick", wire/t.scrapedMonTicks, "B")
	one("cluster.snapshots_per_s", delta("volley_cluster_snapshots_shipped_total")/scrapedSecs, "1/s")

	if w.gatedArms {
		arm := func(prefix string) float64 {
			var obs, mons float64
			key := `volley_sampler_observations_total{instance="` + prefix
			for k, v := range after[0].scrape {
				if strings.HasPrefix(k, key) {
					obs += v - before[0].scrape[k]
					mons++
				}
			}
			return ratio(obs, mons)
		}
		one("correlation.gated_sampling_ratio", ratio(arm("tg-"), arm("tu-")), "ratio")
	} else {
		one("correlation.gated_sampling_ratio", 0, "ratio")
	}

	// Tick duration as seen from outside. In a closed loop ticks run back to
	// back, so the gap between two canary reads is one tick; a paced loop
	// idles between ticks, and the span of a tick's burst of agent reads is
	// the time it spent in the monitor pass.
	spans := tickGaps
	if !w.closedLoop {
		spans = burstSpans(ts.probeTimes(win.from, win.to), w.interval/2)
	}
	L["volleyd.tick_ms_p50"] = metric{ms(quantile(spans, 0.50)), "ms", len(spans)}
	L["volleyd.tick_ms_p99"] = metric{ms(quantile(spans, 0.99)), "ms", len(spans)}
}

// failover kills the shard owning more tasks with SIGKILL and waits until
// the survivor owns everything, warm.
func failover(ctx context.Context, dp *deployment, nTasks int, res *liveResult) error {
	views := make([]clusterView, len(dp.daemons))
	victim := 0
	for i, d := range dp.daemons {
		res.attempted++
		if err := d.getJSON("/cluster", &views[i]); err != nil {
			return err
		}
		if len(views[i].Owned) > len(views[victim].Owned) {
			victim = i
		}
	}
	lost := len(views[victim].Owned)
	vd := dp.daemons[victim]
	killed := time.Now()
	vd.kill()
	_ = vd.wait() // SIGKILL is the expected exit
	vd.killed = true
	survivors := append(append([]*daemon(nil), dp.daemons[:victim]...), dp.daemons[victim+1:]...)
	after := make([]clusterView, len(survivors))
	err := poll(ctx, "the survivor to own every task", func() (bool, error) {
		owned := 0
		for i, d := range survivors {
			res.attempted++
			after[i] = clusterView{}
			if err := d.getJSON("/cluster", &after[i]); err != nil {
				return false, err
			}
			owned += len(after[i].Owned)
		}
		return owned == nTasks, nil
	})
	if err != nil {
		return err
	}
	res.layer["cluster.failover_s"] = metric{time.Since(killed).Seconds(), "s", 1}
	var warm, cold float64
	for _, cv := range after {
		for _, o := range cv.Owned {
			if o.Recovery != nil && o.Recovery.Warm {
				warm++
			}
		}
		cold += float64(cv.ColdStarts)
	}
	res.attempted += lost
	res.failed += int(cold)
	if int(warm) != lost || cold != 0 {
		res.problemf("after kill -9 of shard %q owning %d tasks: %v warm recoveries, %v cold starts", vd.id, lost, warm, cold)
	}
	res.layer["cluster.warm_recovery_share"] = metric{warm / float64(lost), "ratio", lost}
	return nil
}

// detection scores the probe tasks' alert lines against the ground truth.
// Each probe's windows run on the clock of whoever serves its values: the
// truth server's for HTTP probes, else the hosting daemon's workload epoch,
// which its calibration alerts date.
func detection(w workload, dp *deployment, ts *truthServer, probes []probe, win window, res *liveResult) error {
	byTask := make(map[string][]time.Time)
	epochs := make([]time.Time, len(dp.daemons))
	ticks := make([][]time.Duration, len(dp.daemons)) // each daemon's canary stamps around the window
	var index map[float64]int
	if !w.httpProbes {
		var err error
		if index, err = calIndex(); err != nil {
			return err
		}
	}
	for i, d := range dp.daemons {
		alerts, cal := d.probeAlerts()
		for _, a := range alerts {
			byTask[a.task] = append(byTask[a.task], a.at)
		}
		ticks[i] = ts.canaryTimes(dp.canary[i], win.from-time.Second, win.to+time.Second)
		epochs[i] = ts.epoch
		if !w.httpProbes {
			var err error
			if epochs[i], err = estimateEpoch(cal, index, calPeriod, calWindows, d.started); err != nil {
				return fmt.Errorf("daemon %q: %w", d.id, err)
			}
		}
	}
	var lat []time.Duration
	var wholeTicks float64
	var long, missed, stray int
	for i, p := range probes {
		name := probeName(i)
		owner := dp.owner[name]
		epoch := epochs[owner]
		alerts := make([]time.Duration, len(byTask[name]))
		for j, at := range byTask[name] {
			alerts[j] = at.Sub(epoch)
		}
		sort.Slice(alerts, func(a, b int) bool { return alerts[a] < alerts[b] })
		// The measured window on this probe's clock, leaving room at the end
		// for the latest alert an episode may still be matched with.
		shift := epoch.Sub(ts.epoch)
		from := int((win.from - shift) / probePeriod)
		to := int((win.to - shift - time.Duration(w.probeMaxInterval+1)*win.tick) / probePeriod)
		hits, n, m := matchEpisodes(episodes(p.values, p.threshold, probePeriod, from, to), alerts, win.tick, w.probeMaxInterval)
		for _, h := range hits {
			lat = append(lat, h.alert-h.start)
			wholeTicks += float64(countWithin(ticks[owner], h.start+shift, h.alert+shift-win.tick/2))
		}
		long += n
		missed += m
		// Only inside the window: before it the shards may still be settling
		// who hosts what, and after it the failover drill moves probes to a
		// daemon with another epoch.
		for _, a := range within(alerts, win.from-shift, win.to-shift) {
			if !nearViolation(p.values, p.threshold, probePeriod, a, time.Duration(w.probeMaxInterval+2)*win.tick, win.tick) {
				stray++
			}
		}
	}
	if stray > 0 {
		res.problemf("%d probe alerts are further than %d ticks from any ground-truth violation of their node", stray, w.probeMaxInterval+2)
	}
	if len(lat) == 0 || long == 0 {
		res.problemf("no ground-truth episode was detected (%d matched, %d of two windows or more)", len(lat), long)
		return nil
	}
	// Gated as a count of ticks, the paper's unit (the default sampling
	// interval): a tick the host delays is still one tick, so the count
	// repeats where milliseconds do not. The count is of the whole ticks the
	// hosting daemon completed between the onset and the tick that raised
	// the alert (canary reads up to half a tick before the alert line, which
	// leaves that tick's own read out); to it is added the half tick an
	// onset, falling at a uniform phase, waits for the next tick to begin.
	// A sampler already at interval 1 scores 0.5; every tick of countdown it
	// had left adds one.
	p50, p95 := quantile(lat, 0.50), quantile(lat, 0.95)
	res.e2e["detect_latency_ticks_mean"] = metric{0.5 + wholeTicks/float64(len(lat)), "ticks", len(lat)}
	res.layer["probe.detect_latency_ms_p50"] = metric{ms(p50), "ms", len(lat)}
	res.layer["probe.detect_latency_ms_p95"] = metric{ms(p95), "ms", len(lat)}
	res.e2e["detected_episode_share"] = metric{1 - float64(missed)/float64(long), "ratio", long}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the linearly interpolated q-quantile of the durations; zero
// for an empty set.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// hostInfo is recorded with every result: enough to tell two machines' runs
// apart.
type hostInfo struct {
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	Commit    string `json:"commit"`
	LoadAvg1  string `json:"loadavg_1m"`
}

func readHostInfo() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: "unknown", LoadAvg1: "unknown"}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			h.LoadAvg1 = f[0]
		}
	}
	return h
}
