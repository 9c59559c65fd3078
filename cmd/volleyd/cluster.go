// Cluster mode: with -shards N volleyd runs a sharded monitoring cluster
// instead of a single sampling loop. Tasks are admitted, retuned and
// evicted at runtime over HTTP (POST/PATCH/DELETE /tasks), shards join and
// leave the placement ring (POST/DELETE /shards), and the observability
// endpoints grow cluster-wide views: /healthz reports per-shard readiness
// and the ring epoch, /metrics the volley_cluster_* instruments.
//
//	volleyd -shards 3 -interval 1s -listen :9464
//
//	curl -X POST :9464/tasks -d '{"name":"cpu","threshold":100,"err":0.05,
//	  "monitors":[{"id":"m0","source":"http://host-a/load"},
//	              {"id":"m1","source":"http://host-b/load"}]}'
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"volley"
)

// clusterTaskRequest is the POST /tasks body.
type clusterTaskRequest struct {
	Name      string  `json:"name"`
	Threshold float64 `json:"threshold"`
	Direction string  `json:"direction,omitempty"`
	Err       float64 `json:"err"`
	// MaxInterval bounds each monitor's adaptive interval (units of the
	// daemon's -interval). Zero means the daemon's -max-interval.
	MaxInterval int                     `json:"maxInterval,omitempty"`
	Monitors    []clusterMonitorRequest `json:"monitors"`
	// Gate correlation-gates the task on another admitted task: its
	// monitors sample at the relaxed interval until the predictor's
	// monitors observe a local violation.
	Gate *clusterGateRequest `json:"gate,omitempty"`
}

// clusterGateRequest correlation-gates an admitted task (DESIGN.md §16):
// while the predictor task is quiet, every monitor of the gated task
// stretches to RelaxedInterval; a local violation on any of the
// predictor's monitors arms the gates for HoldDown ticks and wakes the
// gated monitors so they sample immediately. The predictor must already be
// admitted and hosted here, and must not itself be gated (no gate chains,
// matching BuildMonitoringPlan). Evicting a predictor leaves its
// dependents permanently relaxed.
type clusterGateRequest struct {
	// Predictor names the admitted task whose local violations arm the gate.
	Predictor string `json:"predictor"`
	// RelaxedInterval is the quiet-time sampling interval in units of the
	// daemon's -interval; zero means 4× the task's max interval.
	RelaxedInterval int `json:"relaxedInterval,omitempty"`
	// HoldDown is how many ticks a predictor violation keeps the task at
	// its fully adaptive interval; zero means 10.
	HoldDown int `json:"holdDown,omitempty"`
}

// clusterMonitorRequest is one monitor of an admitted task: an ID unique
// within the task and a signal source in -source syntax.
type clusterMonitorRequest struct {
	ID     string `json:"id"`
	Source string `json:"source"`
}

// clusterUpdateRequest is the PATCH /tasks/{name} body. Exactly one of
// Threshold and Selectivity drives the retune: with Selectivity k set, the
// daemon derives each monitor's local threshold from its live streaming
// sketch — the (100−k)-th percentile of everything that monitor has
// sampled since admission — and the global threshold as their sum, no
// history replay needed.
type clusterUpdateRequest struct {
	Threshold   float64 `json:"threshold"`
	Err         float64 `json:"err"`
	Selectivity float64 `json:"selectivity,omitempty"`
}

// clusterSelectivityGrid sizes each hosted monitor's streaming sketch: the
// marker bank tracks these selectivities (percent) exactly, and PATCH may
// ask any k in (0, 100) with interpolation between grid points.
var clusterSelectivityGrid = []float64{25, 10, 5, 2, 1, 0.5, 0.2, 0.1}

// clusterDaemon owns the cluster-mode runtime: the federation, the
// monitors it hosts for admitted tasks, and the virtual clock the driver
// loop advances.
type clusterDaemon struct {
	opts     options
	net      *volley.MemoryNetwork
	cl       *volley.Cluster
	tracer   *volley.Tracer
	reg      *volley.Metrics
	alerts   *volley.Counter
	gateArms *volley.Counter
	alertReg *volley.AlertRegistry
	agents   *agentPool // the hosted monitors' HTTP agents' connections
	start    time.Time

	eventsSink, historySink *fileSink

	mu     sync.Mutex
	hosted hostedSet // the monitors hosted for admitted tasks
	step   uint64    // virtual ticks elapsed

	// Correlation gating state (guarded by mu). gates is index-aligned
	// with hosted.mons for the same task. After construction, gates are only
	// touched from the tick loop goroutine — Monitor.Tick drives
	// Tick/Interval while ticking, and the loop's fan-out drives
	// Armed/Signal afterwards — so Gate's single-goroutine contract holds.
	gates    map[string][]*volley.Gate // gated task → per-monitor gates
	gatePred map[string]string         // gated task → predictor task

	// plan is the hosted set flattened for tickOnce; it belongs to the
	// goroutine that ticks.
	plan tickPlan

	// skMu guards sketches — both the map and the trackers' contents. The
	// tick loop feeds sampled values in, PATCH /tasks reads thresholds out,
	// and the volley_series_resident_bytes / volley_sketch_* instruments
	// read footprint and mode at scrape time. skMu is always innermost
	// (taken with mu or the registry lock held, never the reverse), so the
	// scrape path (registry lock → skMu) cannot deadlock against admission
	// (mu → registry lock → skMu).
	skMu     sync.Mutex
	sketches map[string][]*volley.StreamingThresholds // task name → per-monitor trackers
}

// now is the virtual clock position of the last completed tick, the time
// base alert lifecycle operations from HTTP handlers are stamped with.
func (d *clusterDaemon) now() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.step == 0 {
		return 0
	}
	return time.Duration(d.step-1) * d.opts.interval
}

// newClusterDaemon builds the cluster-mode runtime — sinks, instruments,
// alert registry and the federation — without serving or ticking it. The
// caller closes it.
func newClusterDaemon(opts options) (*clusterDaemon, error) {
	if opts.interval <= 0 {
		return nil, fmt.Errorf("interval must be positive, got %v", opts.interval)
	}
	if opts.maxInterval < 1 {
		return nil, fmt.Errorf("max-interval must be at least 1, got %d", opts.maxInterval)
	}

	reg := volley.NewMetrics()
	d := &clusterDaemon{
		opts:     opts,
		net:      volley.NewMemoryNetwork(),
		reg:      reg,
		agents:   newAgentPool(reg),
		start:    time.Now(),
		hosted:   newHostedSet(),
		sketches: make(map[string][]*volley.StreamingThresholds),
		gates:    make(map[string][]*volley.Gate),
		gatePred: make(map[string]string),
	}
	var err error
	if d.eventsSink, err = openFileSink(opts.eventsFile); err != nil {
		return nil, err
	}
	if d.historySink, err = openFileSink(opts.alertHist); err != nil {
		return nil, errors.Join(err, d.close())
	}
	tracerOpts := []volley.TracerOption{
		volley.WithTraceClock(func() time.Duration { return time.Since(d.start) }),
	}
	if opts.events {
		tracerOpts = append(tracerOpts, volley.WithTraceJSONL(opts.out))
	}
	if d.eventsSink != nil {
		tracerOpts = append(tracerOpts, volley.WithTraceJSONL(d.eventsSink))
	}
	d.tracer = volley.NewTracer(4096, tracerOpts...)
	d.alerts = d.reg.Counter("volleyd_alerts_total", "State alerts raised across all cluster tasks.")
	d.gateArms = d.reg.Counter("volley_cluster_gate_arms_total",
		"Correlation gates armed by predictor violations (transitions from relaxed to adaptive).")
	d.reg.GaugeFunc("volleyd_uptime_seconds", "Seconds since daemon start.", func() float64 {
		return time.Since(d.start).Seconds()
	})
	// Bounded-memory threshold instrumentation: the sketches' total
	// footprint stays O(1) per monitor no matter how long the daemon runs —
	// this gauge is the live proof — and the mode/fallback counters show
	// when a stream defeated the P² marker bank.
	d.reg.GaugeFunc("volley_series_resident_bytes",
		"Total resident bytes of the live per-monitor streaming threshold sketches.",
		func() float64 { resident, _, _, _, _ := d.sketchStats(); return float64(resident) })
	d.reg.GaugeFunc("volley_sketch_series",
		"Live streaming threshold sketches (one per hosted monitor).",
		func() float64 { _, series, _, _, _ := d.sketchStats(); return float64(series) })
	d.reg.GaugeFunc("volley_sketch_gk_mode_series",
		"Sketches that permanently fell back from the P2 marker bank to the GK summary.",
		func() float64 { _, _, gk, _, _ := d.sketchStats(); return float64(gk) })
	d.reg.CounterFunc("volley_sketch_fallbacks_total",
		"P2-to-GK fallbacks across all live sketches.",
		func() float64 { _, _, _, fb, _ := d.sketchStats(); return float64(fb) })
	d.reg.CounterFunc("volley_sketch_rejected_total",
		"Non-finite sampled values rejected by the streaming sketches.",
		func() float64 { _, _, _, _, rej := d.sketchStats(); return float64(rej) })
	volley.RegisterBuildInfo(d.reg, d.start)
	d.alertReg = newAlertRegistry("volleyd", opts, d.reg, d.tracer, d.historySink)

	shards := make([]string, opts.shards)
	for i := range shards {
		shards[i] = fmt.Sprintf("shard-%d", i)
	}
	printer := newAlertPrinter(opts.out, "")
	d.cl, err = volley.NewCluster(volley.ClusterConfig{
		Name:    "volleyd",
		Shards:  shards,
		Network: d.net,
		Metrics: d.reg,
		Tracer:  d.tracer,
		Alerts:  d.alertReg,
		OnAlert: func(task string, now time.Duration, total float64) {
			d.alerts.Inc()
			printer.print(task, now, total)
		},
	})
	if err != nil {
		return nil, errors.Join(err, d.close())
	}
	return d, nil
}

// close flushes and closes the daemon's JSONL sinks and drops its agents'
// idle connections.
func (d *clusterDaemon) close() error {
	d.agents.close()
	return closeSinks(d.eventsSink, d.historySink)
}

// runCluster is cluster-mode main: it builds the federation, serves the
// control plane and drives the tick loop until the context ends.
func runCluster(ctx context.Context, opts options) error {
	d, err := newClusterDaemon(opts)
	if err != nil {
		return err
	}
	publishExpvar(d.status)

	if opts.listen == "" {
		return errors.Join(fmt.Errorf("cluster mode needs -listen (the control plane is HTTP)"), d.close())
	}
	ln, err := net.Listen("tcp", opts.listen)
	if err != nil {
		return errors.Join(err, d.close())
	}
	if opts.onListen != nil {
		opts.onListen(ln.Addr().String())
	}
	srv := &http.Server{Handler: d.mux()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	loopErr := d.loop(ctx)

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return errors.Join(loopErr, err, d.close())
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return errors.Join(loopErr, err, d.close())
	}
	return errors.Join(loopErr, d.close())
}

// loop advances the cluster and every hosted monitor once per -interval on
// a virtual clock (tick count × interval), the same time base the
// simulation harness uses, so wall-clock jitter never skews liveness
// horizons.
func (d *clusterDaemon) loop(ctx context.Context) error {
	if d.opts.duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d.opts.duration)
		defer cancel()
	}
	ticker := time.NewTicker(d.opts.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
		}
		d.tickOnce()
	}
}

// tickOnce is one tick: the coordinators, then every hosted monitor, then
// the sketch feed and the gate fan-out. While the hosted set is unchanged it
// takes mu once, compares one integer and allocates nothing.
func (d *clusterDaemon) tickOnce() {
	p := &d.plan
	d.mu.Lock()
	now := time.Duration(d.step) * d.opts.interval
	d.step++
	if p.gen != d.hosted.gen {
		d.skMu.Lock()
		p.refresh(&d.hosted, d.sketches, d.gates, d.gatePred)
		d.skMu.Unlock()
	}
	d.mu.Unlock()
	d.cl.Tick(now)
	p.tickMonitors(now)
	// Feed the sampled values into the monitors' streaming sketches in
	// one batch, after all (possibly slow) agent reads are done, so the
	// sketch lock is never held across network I/O.
	d.skMu.Lock()
	for i, sk := range p.sks {
		if p.fed[i] {
			sk.Observe(p.values[i])
		}
	}
	d.skMu.Unlock()
	if p.gating {
		d.fanOutGateSignals(p)
	}
	d.agents.sweep(time.Now())
}

// fanOutGateSignals arms the correlation gates of every task whose
// predictor observed a local violation this tick: the gates hold down at
// the adaptive interval and monitors still relaxed are woken so they
// sample on the very next tick instead of finishing a stretched-out
// countdown first (the scheduler's predictor-wakes-target semantics,
// applied across admitted tasks). It works on the plan alone, so a task
// evicted since the plan was refreshed is still signalled this once.
func (d *clusterDaemon) fanOutGateSignals(p *tickPlan) {
	fired := false
	for i, m := range p.mons {
		if p.fed[i] && m.Violates(p.values[i]) {
			p.violated[p.task[i]] = true
			fired = true
		}
	}
	if !fired {
		return
	}
	for i, g := range p.gates {
		if g == nil {
			continue
		}
		if pred := p.pred[p.task[i]]; pred < 0 || !p.violated[pred] {
			continue
		}
		if !g.Armed() {
			d.gateArms.Inc()
			p.mons[i].Wake()
		}
		g.Signal(true)
	}
	clear(p.violated)
}

// sketchStats snapshots the live sketches for the scrape-time instruments:
// total resident bytes, tracker count, trackers in GK-fallback mode, and
// the fallback/rejection totals.
func (d *clusterDaemon) sketchStats() (resident int, series, gk int, fallbacks, rejected uint64) {
	d.skMu.Lock()
	defer d.skMu.Unlock()
	for _, sks := range d.sketches {
		for _, sk := range sks {
			resident += sk.ResidentBytes()
			series++
			if sk.Mode() == volley.SketchModeGK {
				gk++
			}
			fallbacks += sk.Fallbacks()
			rejected += sk.Rejected()
		}
	}
	return resident, series, gk, fallbacks, rejected
}

// status is the /healthz (and expvar) payload: cluster-wide state plus
// per-shard readiness and the ring epoch.
func (d *clusterDaemon) status() map[string]any {
	st := d.cl.Stats()
	return map[string]any{
		"status":         "ok",
		"mode":           "cluster",
		"uptime_seconds": time.Since(d.start).Seconds(),
		"ring_epoch":     st.RingEpoch,
		"shards":         d.cl.Shards(),
		"tasks":          st.Tasks,
		"alerts":         d.alerts.Value(),
		"handoffs":       st.Handoffs,
	}
}

// mux wires the cluster control plane and the observability endpoints.
func (d *clusterDaemon) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		d.reg.WritePrometheus(w)
		d.tracer.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(d.status())
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(d.tracer.Events())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	registerAlertRoutes(mux, d.alertReg, d.now)

	mux.HandleFunc("GET /tasks", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(d.cl.Tasks())
	})
	mux.HandleFunc("POST /tasks", d.handleAdmit)
	mux.HandleFunc("PATCH /tasks/{name}", d.handleUpdate)
	mux.HandleFunc("DELETE /tasks/{name}", d.handleEvict)
	mux.HandleFunc("POST /shards", d.handleShardJoin)
	mux.HandleFunc("DELETE /shards/{id}", d.handleShardDrop)
	return mux
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// handleAdmit admits a task: its monitors are built from the requested
// sources and hosted by the daemon, its coordinator placed on the owning
// shard.
func (d *clusterDaemon) handleAdmit(w http.ResponseWriter, r *http.Request) {
	var req clusterTaskRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Monitors) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("task %q has no monitors", req.Name))
		return
	}
	dir, err := parseDirection(req.Direction)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	maxInterval := req.MaxInterval
	if maxInterval == 0 {
		maxInterval = d.opts.maxInterval
	}
	// Build every agent before touching cluster state, so a bad source
	// rejects the whole admission.
	agents := make([]volley.Agent, len(req.Monitors))
	addrs := make([]string, len(req.Monitors))
	seen := make(map[string]bool, len(req.Monitors))
	for i, m := range req.Monitors {
		if m.ID == "" || seen[m.ID] {
			httpError(w, http.StatusBadRequest, fmt.Errorf("monitor ID %q empty or duplicate", m.ID))
			return
		}
		seen[m.ID] = true
		agents[i], err = buildAgent(m.Source, d.agents)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		addrs[i] = req.Name + "/mon/" + m.ID
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	// Validate and build the correlation gates before touching cluster
	// state, so a bad gate spec rejects the whole admission with nothing to
	// roll back.
	var gs []*volley.Gate
	if req.Gate != nil {
		pred := req.Gate.Predictor
		switch {
		case pred == "":
			httpError(w, http.StatusBadRequest, fmt.Errorf("task %q: gate needs a predictor task", req.Name))
			return
		case pred == req.Name:
			httpError(w, http.StatusBadRequest, fmt.Errorf("task %q cannot gate on itself", req.Name))
			return
		case len(d.hosted.mons[pred]) == 0:
			httpError(w, http.StatusBadRequest, fmt.Errorf("task %q: gate predictor %q is not admitted here", req.Name, pred))
			return
		}
		if _, chained := d.gatePred[pred]; chained {
			httpError(w, http.StatusBadRequest,
				fmt.Errorf("task %q: predictor %q is itself gated (gate chains are not allowed)", req.Name, pred))
			return
		}
		relaxed := req.Gate.RelaxedInterval
		if relaxed == 0 {
			relaxed = 4 * maxInterval
		}
		hold := req.Gate.HoldDown
		if hold == 0 {
			hold = 10
		}
		gs = make([]*volley.Gate, len(addrs))
		for i := range gs {
			g, err := volley.NewGate(relaxed, hold)
			if err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("task %q: %w", req.Name, err))
				return
			}
			gs[i] = g
		}
	}
	shard, err := d.cl.Admit(volley.ClusterTaskSpec{
		Name:      req.Name,
		Threshold: req.Threshold,
		Direction: dir,
		Err:       req.Err,
		Monitors:  addrs,
	})
	if err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	n := float64(len(addrs))
	mons := make([]*volley.Monitor, len(addrs))
	for i, addr := range addrs {
		cfg := volley.MonitorConfig{
			ID:    addr,
			Task:  req.Name,
			Agent: agents[i],
			Sampler: volley.SamplerConfig{
				// The local task decomposition: an even split of the global
				// threshold and allowance; the coordinator re-tunes the
				// allowance shares from yield reports as the run learns.
				Threshold:   req.Threshold / n,
				Direction:   dir,
				Err:         req.Err / n,
				MaxInterval: maxInterval,
			},
			Network:        d.net,
			Coordinator:    d.cl.CoordinatorAddr(req.Name),
			YieldEvery:     100,
			HeartbeatEvery: 10,
			Metrics:        d.reg,
			Tracer:         d.tracer,
			Alerts:         d.alertReg,
		}
		if gs != nil {
			// Assign through the concrete slice only when gated: a nil
			// *Gate stored in the interface field would be a non-nil
			// IntervalGate and the monitor would call through it.
			cfg.Gate = gs[i]
		}
		mons[i], err = volley.NewMonitor(cfg)
		if err != nil {
			// Roll the half-admitted task back so the request is atomic.
			for _, a := range addrs[:i] {
				_ = d.net.Deregister(a)
			}
			_ = d.cl.Evict(req.Name)
			httpError(w, http.StatusBadRequest, err)
			return
		}
	}
	// One streaming sketch per monitor, fed from its sampled ticks; index-
	// aligned with d.hosted.mons[name] (the tick loop and PATCH rely on that).
	sks := make([]*volley.StreamingThresholds, len(addrs))
	for i := range sks {
		sk, err := volley.NewStreamingThresholds(clusterSelectivityGrid)
		if err != nil {
			for _, a := range addrs {
				_ = d.net.Deregister(a)
			}
			_ = d.cl.Evict(req.Name)
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		sks[i] = sk
	}
	d.skMu.Lock()
	d.sketches[req.Name] = sks
	d.skMu.Unlock()
	resp := map[string]any{
		"name": req.Name, "shard": shard,
		"coordinator": d.cl.CoordinatorAddr(req.Name), "monitors": addrs,
	}
	if gs != nil {
		d.gates[req.Name] = gs
		d.gatePred[req.Name] = req.Gate.Predictor
		resp["gate"] = map[string]any{"predictor": req.Gate.Predictor}
	}
	d.hosted.put(req.Name, mons)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	_ = json.NewEncoder(w).Encode(resp)
}

// handleUpdate retunes a task's threshold and allowance: the cluster
// rescales the coordinator's allowance state and the daemon re-splits the
// hosted monitors' local thresholds. With "selectivity" set instead of a
// threshold, the new thresholds come from the monitors' live streaming
// sketches: monitor i's local threshold becomes the (100−k)-th percentile
// of everything it has sampled, and the global threshold their sum —
// selectivity-based task creation (the paper's methodology) applied at
// runtime, with no retained history to replay.
func (d *clusterDaemon) handleUpdate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req clusterUpdateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if req.Selectivity != 0 {
		d.updateFromSelectivity(w, name, req)
		return
	}
	if err := d.cl.Update(name, req.Threshold, req.Err); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	mons := d.hosted.mons[name]
	for _, m := range mons {
		if err := m.SetLocalThreshold(req.Threshold / float64(len(mons))); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// updateFromSelectivity is the sketch-driven branch of PATCH /tasks/{name};
// the caller holds d.mu. It answers 200 with the derived thresholds so the
// operator sees what the retune resolved to.
func (d *clusterDaemon) updateFromSelectivity(w http.ResponseWriter, name string, req clusterUpdateRequest) {
	if req.Threshold != 0 {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("task %q: threshold and selectivity are mutually exclusive", name))
		return
	}
	mons := d.hosted.mons[name]
	if len(mons) == 0 {
		httpError(w, http.StatusNotFound, fmt.Errorf("task %q not hosted here", name))
		return
	}
	d.skMu.Lock()
	sks := d.sketches[name]
	locals := make([]float64, len(sks))
	samples := make([]int, len(sks))
	var total float64
	var derr error
	for i, sk := range sks {
		locals[i], derr = sk.Threshold(req.Selectivity)
		if derr != nil {
			break
		}
		samples[i] = sk.N()
		total += locals[i]
	}
	d.skMu.Unlock()
	if derr != nil {
		// Covers both an out-of-domain k and a monitor that has not sampled
		// yet (no data to derive a percentile from).
		httpError(w, http.StatusBadRequest, fmt.Errorf("task %q: %w", name, derr))
		return
	}
	if err := d.cl.Update(name, total, req.Err); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	for i, m := range mons {
		if err := m.SetLocalThreshold(locals[i]); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"name": name, "selectivity": req.Selectivity, "err": req.Err,
		"threshold": total, "localThresholds": locals, "samples": samples,
	})
}

// handleEvict removes a task and the monitors hosted for it.
func (d *clusterDaemon) handleEvict(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	d.mu.Lock()
	defer d.mu.Unlock()
	var addrs []string
	for _, ti := range d.cl.Tasks() {
		if ti.Spec.Name == name {
			addrs = ti.Spec.Monitors
		}
	}
	if err := d.cl.Evict(name); err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	for _, a := range addrs {
		_ = d.net.Deregister(a)
	}
	d.hosted.remove(name)
	// Gating cleanup. If the evicted task was gated, unlink it from its
	// predictor. If it was a predictor, its dependents keep their gates but
	// nothing arms them anymore: they sample at the relaxed interval until
	// they are themselves evicted (documented on clusterGateRequest).
	delete(d.gates, name)
	delete(d.gatePred, name)
	for tgt, pred := range d.gatePred {
		if pred == name {
			delete(d.gatePred, tgt)
		}
	}
	d.skMu.Lock()
	delete(d.sketches, name)
	d.skMu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// handleShardJoin adds a shard to the ring.
func (d *clusterDaemon) handleShardJoin(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := d.cl.AddShard(req.ID); err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleShardDrop removes a shard; ?mode=crash records an ungraceful loss
// instead of a drain (the stats and trace tell them apart).
func (d *clusterDaemon) handleShardDrop(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	drop := d.cl.RemoveShard
	if r.URL.Query().Get("mode") == "crash" {
		drop = d.cl.CrashShard
	}
	if err := drop(id); err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
