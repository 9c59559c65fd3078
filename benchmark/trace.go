package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"volley"
)

// The traced run replays a workload in this process at a quarter of its size
// on a virtual clock, built only from the public constructors the daemon
// itself uses, with a span recorded around every call into a layer. The spans
// live here, in the benchmark's own files: nothing inside the program is
// instrumented. One goroutine runs the whole replay, as one goroutine runs
// the daemon's tick loop, so spans nest strictly and a stack finds parents.

// Span names, one per layer boundary.
const (
	spanLoop        = iota // one whole tick of the replay loop
	spanClusterTick        // Cluster.Tick: every coordinator's tick
	spanMonitorTick        // Monitor.Tick
	spanAgentRead          // the agent func inside Monitor.Tick
	spanSend               // transport.Network.Send
	spanCoordHandle        // a coordinator's registered handler
	spanMonHandle          // a monitor's registered handler
	spanObserve            // StreamingThresholds.Observe
	spanFanout             // gate fan-out after the monitor pass
	spanOnAlert            // the cluster's OnAlert callback
	spanCount
)

// spanMetric names the per-layer metric each span's self time feeds.
var spanMetric = [spanCount]string{
	spanLoop:        "replay.loop_self_ns",
	spanClusterTick: "cluster.tick_self_ns",
	spanMonitorTick: "monitor.tick_self_ns",
	spanAgentRead:   "agent.read_ns",
	spanSend:        "transport.send_self_ns",
	spanCoordHandle: "coord.handle_self_ns",
	spanMonHandle:   "monitor.handle_self_ns",
	spanObserve:     "task.observe_ns",
	spanFanout:      "correlation.fanout_ns",
	spanOnAlert:     "alerts.on_alert_ns",
}

// span is one timed call: which layer, between which instants (ns since the
// recorder started), caused by which span (-1 for a tick's root), in which
// tick.
type span struct {
	Name   uint8 `json:"name"`
	Tick   int32 `json:"tick"`
	Parent int32 `json:"parent"`
	Start  int64 `json:"start"`
	End    int64 `json:"end"`
}

// recorder keeps spans in memory. While off, begin and end do nothing, so
// the same replay code runs untraced for the overhead comparison.
type recorder struct {
	on    bool
	t0    time.Time
	tick  int32
	spans []span
	stack []int32
}

func (r *recorder) begin(name uint8) int32 {
	if !r.on {
		return -1
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, Tick: r.tick, Parent: parent, Start: int64(time.Since(r.t0))})
	r.stack = append(r.stack, id)
	return id
}

func (r *recorder) end(id int32) {
	if id < 0 {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
	r.stack = r.stack[:len(r.stack)-1]
}

// selfTimes sums, per span name, each span's duration less the part its
// child spans cover. Children of one parent never overlap here (one
// goroutine), so the covered part is the sum of their durations.
func selfTimes(spans []span) [spanCount]int64 {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	var self [spanCount]int64
	for i, s := range spans {
		self[s.Name] += s.End - s.Start - covered[i]
	}
	return self
}

// tracedNet decorates the replay's network: Send and every registered
// handler run inside a span. A coordinator's address ends in "/coord";
// everything else registered here is a monitor.
type tracedNet struct {
	inner *volley.MemoryNetwork
	rec   *recorder
}

func (n *tracedNet) Register(addr string, h volley.MessageHandler) error {
	name := uint8(spanMonHandle)
	if strings.HasSuffix(addr, "/coord") {
		name = spanCoordHandle
	}
	return n.inner.Register(addr, func(m volley.Message) {
		id := n.rec.begin(name)
		h(m)
		n.rec.end(id)
	})
}

func (n *tracedNet) Send(from, to string, m volley.Message) error {
	id := n.rec.begin(spanSend)
	err := n.inner.Send(from, to, m)
	n.rec.end(id)
	return err
}

func (n *tracedNet) Deregister(addr string) error { return n.inner.Deregister(addr) }

// replay is the in-process copy of the daemon's cluster-mode runtime.
type replay struct {
	rec      *recorder
	cl       *volley.Cluster
	interval time.Duration
	step     int

	mons     []*volley.Monitor
	taskOf   []int // monitor → index of its task
	sketches []*volley.StreamingThresholds
	// gates[t] are the gates of gated task t's monitors, targets[p] the
	// gated tasks predictor p arms, monsOf[t] the monitor indices of task t.
	gates   map[int][]*volley.Gate
	targets map[int][]int
	monsOf  [][]int
}

// selectivityGrid is the daemon's clusterSelectivityGrid.
var selectivityGrid = []float64{25, 10, 5, 2, 1, 0.5, 0.2, 0.1}

// replayAgent is the replay's buildAgent: the same sources, read on the
// replay's virtual clock. Generated sets are cached per family parameters,
// as the daemon caches them.
func replayAgent(source string, now func() time.Duration, cache map[string]*volley.WorkloadSet) (func() (float64, error), error) {
	if strings.HasPrefix(source, "http://") {
		return func() (float64, error) {
			resp, err := http.Get(source)
			if err != nil {
				return 0, err
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
			if err != nil {
				return 0, err
			}
			return strconv.ParseFloat(strings.TrimSpace(string(body)), 64)
		}, nil
	}
	u, err := url.Parse(source)
	if err != nil || u.Scheme != "workload" {
		return nil, fmt.Errorf("replay: unsupported source %q", source)
	}
	q := u.Query()
	num := func(key string) int {
		v, _ := strconv.Atoi(q.Get(key)) // absent keys read 0; the specs here always set what they use
		return v
	}
	period, err := time.ParseDuration(q.Get("period"))
	if err != nil {
		return nil, fmt.Errorf("replay: source %q: %w", source, err)
	}
	var family volley.WorkloadFamily
	switch u.Opaque {
	case "entropy":
		family = volley.DefaultEntropyFlowWorkload(num("nodes"), num("windows"), int64(num("seed")))
	case "tenant", "tenantagg":
		family = volley.DefaultTenantColoWorkload(num("tenants"), num("groups"), num("windows"), int64(num("seed")))
	default:
		return nil, fmt.Errorf("replay: unknown workload family in %q", source)
	}
	key := fmt.Sprintf("%s/%d/%d/%d/%d/%d", family.Name(), num("nodes"), num("tenants"), num("groups"), num("windows"), num("seed"))
	set := cache[key]
	if set == nil {
		if set, err = volley.GenerateWorkload(family); err != nil {
			return nil, err
		}
		cache[key] = set
	}
	values := set.Series[num("index")].Values
	if u.Opaque == "tenantagg" {
		values = set.Aggregates[num("group")].Values
	}
	return func() (float64, error) { return values[int(now()/period)%len(values)], nil }, nil
}

// newReplay admits the tasks the way the daemon's POST /tasks handler does.
func newReplay(tasks []taskBody, interval time.Duration, rec *recorder) (*replay, error) {
	rp := &replay{rec: rec, interval: interval, gates: map[int][]*volley.Gate{}, targets: map[int][]int{}}
	net := &tracedNet{inner: volley.NewMemoryNetwork(), rec: rec}
	reg, tracer := volley.NewMetrics(), volley.NewTracer(4096)
	alertReg := volley.NewAlertRegistry(volley.AlertConfig{Node: "replay", Metrics: reg, Tracer: tracer})
	enc := json.NewEncoder(io.Discard)
	var err error
	rp.cl, err = volley.NewCluster(volley.ClusterConfig{
		Name: "volleyd", Shards: []string{"shard-0"}, Network: net, Metrics: reg, Tracer: tracer, Alerts: alertReg,
		OnAlert: func(task string, now time.Duration, total float64) {
			id := rec.begin(spanOnAlert)
			// The daemon prints one JSON line per alert; so does the replay.
			_ = enc.Encode(map[string]any{"time": time.Now(), "kind": "alert", "task": task, "value": total, "at": now.String()})
			rec.end(id)
		},
	})
	if err != nil {
		return nil, err
	}
	now := func() time.Duration { return time.Duration(rp.step) * interval }
	cache := map[string]*volley.WorkloadSet{}
	index := make(map[string]int, len(tasks))
	rp.monsOf = make([][]int, len(tasks))
	for t, tb := range tasks {
		index[tb.Name] = t
		addrs := make([]string, len(tb.Monitors))
		for i, m := range tb.Monitors {
			addrs[i] = tb.Name + "/mon/" + m.ID
		}
		if _, err := rp.cl.Admit(volley.ClusterTaskSpec{Name: tb.Name, Threshold: tb.Threshold, Err: tb.Err, Monitors: addrs}); err != nil {
			return nil, err
		}
		n := float64(len(addrs))
		for i, m := range tb.Monitors {
			read, err := replayAgent(m.Source, now, cache)
			if err != nil {
				return nil, err
			}
			cfg := volley.MonitorConfig{
				ID: addrs[i], Task: tb.Name,
				Agent: volley.AgentFunc(func() (float64, error) {
					id := rec.begin(spanAgentRead)
					v, err := read()
					rec.end(id)
					return v, err
				}),
				Sampler:     volley.SamplerConfig{Threshold: tb.Threshold / n, Err: tb.Err / n, MaxInterval: tb.MaxInterval},
				Network:     net,
				Coordinator: rp.cl.CoordinatorAddr(tb.Name),
				YieldEvery:  100, HeartbeatEvery: 10,
				Metrics: reg, Tracer: tracer, Alerts: alertReg,
			}
			if tb.Gate != nil {
				g, err := volley.NewGate(tb.Gate.RelaxedInterval, tb.Gate.HoldDown)
				if err != nil {
					return nil, err
				}
				cfg.Gate = g
				rp.gates[t] = append(rp.gates[t], g)
			}
			mon, err := volley.NewMonitor(cfg)
			if err != nil {
				return nil, err
			}
			sk, err := volley.NewStreamingThresholds(selectivityGrid)
			if err != nil {
				return nil, err
			}
			rp.monsOf[t] = append(rp.monsOf[t], len(rp.mons))
			rp.mons = append(rp.mons, mon)
			rp.taskOf = append(rp.taskOf, t)
			rp.sketches = append(rp.sketches, sk)
		}
		if tb.Gate != nil {
			p := index[tb.Gate.Predictor]
			rp.targets[p] = append(rp.targets[p], t)
		}
	}
	return rp, nil
}

// tick is one pass of the daemon's loop: the cluster, every monitor, the
// sketches, then the gate fan-out.
func (rp *replay) tick() {
	rec := rp.rec
	rec.tick = int32(rp.step)
	now := time.Duration(rp.step) * rp.interval
	root := rec.begin(spanLoop)

	id := rec.begin(spanClusterTick)
	rp.cl.Tick(now)
	rec.end(id)

	values := make([]float64, len(rp.mons))
	fed := make([]bool, len(rp.mons))
	for i, m := range rp.mons {
		id := rec.begin(spanMonitorTick)
		sampled, v, err := m.Tick(now)
		rec.end(id)
		fed[i], values[i] = sampled && err == nil, v
	}
	for i, sk := range rp.sketches {
		if fed[i] {
			id := rec.begin(spanObserve)
			sk.Observe(values[i])
			rec.end(id)
		}
	}
	if len(rp.targets) > 0 {
		id := rec.begin(spanFanout)
		for i, m := range rp.mons {
			if !fed[i] || !m.Violates(values[i]) {
				continue
			}
			for _, t := range rp.targets[rp.taskOf[i]] {
				for j, g := range rp.gates[t] {
					if !g.Armed() {
						rp.mons[rp.monsOf[t][j]].Wake()
					}
					g.Signal(true)
				}
			}
		}
		rec.end(id)
	}
	rec.end(root)
	rp.step++
}

// Replay shape: warm-up ticks, then alternating untraced and traced phases
// of phaseTicks each until the time or the span budget runs out.
const (
	replayWarmTicks = 150
	phaseTicks      = 25
	maxSpans        = 3 << 20 // 96 MiB of spans
)

// runTraced replays the workload at a quarter size, adds the traced layers'
// self times and the directly timed layers to res.layer, and closes the
// budget against the live run's cost per monitor-tick.
func runTraced(ctx context.Context, w workload, cfg runConfig, res *liveResult) error {
	const div = 4
	probes, err := probeSet(w, cfg.seed, div)
	if err != nil {
		return err
	}
	background, err := w.background(cfg.seed, div)
	if err != nil {
		return err
	}
	ts, err := startTruthServer(probes)
	if err != nil {
		return err
	}
	defer ts.close()
	tasks := append(canaryTasks(1, ts.url()), background...)
	tasks = append(tasks, probeTasks(probes, w.probeMaxInterval, ts.url())...)

	rec := &recorder{t0: time.Now(), spans: make([]span, 0, maxSpans)}
	rp, err := newReplay(tasks, w.interval, rec)
	if err != nil {
		return err
	}
	for i := 0; i < replayWarmTicks; i++ {
		rp.tick()
	}
	deadline := time.Now().Add(cfg.seconds / 3)
	var plain, traced time.Duration
	var phases int
	perTick := 0
	for time.Now().Before(deadline) && ctx.Err() == nil && len(rec.spans)+phaseTicks*perTick < maxSpans {
		rec.on = false
		t := time.Now()
		for i := 0; i < phaseTicks; i++ {
			rp.tick()
		}
		plain += time.Since(t)
		rec.on = true
		before := len(rec.spans)
		t = time.Now()
		for i := 0; i < phaseTicks; i++ {
			rp.tick()
		}
		traced += time.Since(t)
		perTick = (len(rec.spans)-before)/phaseTicks + 1
		phases++
	}
	rec.on = false
	if phases == 0 {
		return fmt.Errorf("traced replay: no phase completed")
	}
	monTicks := float64(phases * phaseTicks * len(rp.mons))
	self := selfTimes(rec.spans)
	var attributed float64
	for name, ns := range self {
		v := float64(ns) / monTicks
		res.layer[spanMetric[name]] = metric{v, "ns", phases * phaseTicks}
		if name != spanLoop {
			attributed += v
		}
	}
	res.layer["replay.ns_per_monitor_tick"] = metric{float64(plain) / monTicks, "ns", phases * phaseTicks}
	res.layer["trace.overhead_share"] = metric{float64(traced-plain) / float64(plain), "ratio", phases}
	// What the live daemon spends per monitor-tick that no traced layer
	// owns: its own loop, the runtime, the HTTP server. The replay's spans
	// carry their own overhead, so this is a floor, not an exact figure.
	if live, ok := res.layer["volleyd.cpu_us_per_monitor_tick"]; ok {
		res.layer["volleyd.unattributed_ns"] = metric{live.Value*1000 - attributed, "ns", 1}
	}
	if err := directLayers(res.layer); err != nil {
		return err
	}

	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, rec.spans); err != nil {
			return err
		}
	}
	return nil
}

// writeSpans writes the spans with the names table, one JSON document.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Names []string `json:"names"`
		Spans []span   `json:"spans"`
	}{spanMetric[:], spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
