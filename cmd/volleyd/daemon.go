// The daemon core under volleyd's three modes: what every run has (checked
// options, JSONL sinks, tracer, instruments, alert registry, agent pool), the
// HTTP routes every mode serves, the POST /tasks decoder of the two modes
// that admit tasks, and serve — listener, ticker loop and shutdown. A mode
// fills in status and now, adds its own routes to what routes returns, and
// hands serve the function to call once per -interval.
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
	"time"

	"volley"
)

type daemon struct {
	opts     options
	reg      *volley.Metrics
	tracer   *volley.Tracer
	alerts   *volley.Counter // volleyd_alerts_total
	alertReg *volley.AlertRegistry
	agents   *agentPool // the HTTP agents' kept connections
	// workloads holds the series of the workload: sources this daemon's
	// agents read.
	workloads *workloadSources
	start     time.Time

	eventsSink, historySink *fileSink

	// Filled in by the mode before routes or serve is called.
	status func() map[string]any // the /healthz and expvar payload
	now    func() time.Duration  // the clock the mode stamps alert raises with, for operator acks and resolves
}

// newDaemon checks the options every mode reads and builds the core. node
// names the daemon in its alert registry. The caller closes it.
func newDaemon(opts options, node string) (*daemon, error) {
	if opts.interval <= 0 {
		return nil, fmt.Errorf("interval must be positive, got %v", opts.interval)
	}
	if opts.maxInterval < 1 {
		return nil, fmt.Errorf("max-interval must be at least 1, got %d", opts.maxInterval)
	}
	reg := volley.NewMetrics()
	d := &daemon{opts: opts, reg: reg, agents: newAgentPool(reg), workloads: newWorkloadSources(), start: time.Now()}
	var err error
	if d.eventsSink, err = openFileSink(opts.eventsFile); err != nil {
		return nil, err
	}
	if d.historySink, err = openFileSink(opts.alertHist); err != nil {
		return nil, errors.Join(err, d.close())
	}
	// Every run carries a live instrument registry and a decision-event
	// tracer, whether or not an HTTP listener is attached. Instruments are
	// atomic, so the handlers may read them while the tick writes.
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
	volley.RegisterBuildInfo(reg, d.start)
	d.alerts = reg.Counter("volleyd_alerts_total", "State alerts raised.")
	reg.GaugeFunc("volleyd_uptime_seconds", "Seconds since daemon start.", func() float64 {
		return time.Since(d.start).Seconds()
	})
	reg.GaugeFunc("volley_workload_series",
		"Series the workload: sources hold for the agents built here, group aggregates included.",
		func() float64 { return float64(d.workloads.series.Load()) })
	reg.GaugeFunc("volley_workload_series_bytes",
		"Bytes of the values of the series the workload: sources hold (series × windows × 8).",
		func() float64 { return float64(d.workloads.bytes.Load()) })
	alertCfg := volley.AlertConfig{Node: node, TTL: opts.alertTTL, Metrics: reg, Tracer: d.tracer}
	if d.historySink != nil {
		// Not assigned when nil: a nil *fileSink in the interface field
		// would read as a history to write.
		alertCfg.History = d.historySink
	}
	d.alertReg = volley.NewAlertRegistry(alertCfg)
	return d, nil
}

// close drops the agents' idle connections and flushes and closes the JSONL
// sinks, so the tail of the run is never lost.
func (d *daemon) close() error {
	d.agents.close()
	return errors.Join(d.eventsSink.Close(), d.historySink.Close())
}

// maxIntervalOr is a task's max interval: the one it asked for, or
// -max-interval when it asked for none.
func (d *daemon) maxIntervalOr(requested int) int {
	if requested == 0 {
		return d.opts.maxInterval
	}
	return requested
}

// routes is the HTTP surface every mode serves.
func (d *daemon) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		d.reg.WritePrometheus(w)
		d.tracer.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, d.status()) })
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, d.tracer.Events()) })
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	registerAlertRoutes(mux, d.alertReg, d.now)
	return mux
}

// serve runs the daemon: it serves handler on -listen, where that is set,
// and calls tick once per -interval until ctx ends, -duration has passed or
// tick fails; then it stops accepting, drains in-flight requests and surfaces
// a listener failure that would otherwise die silently in its goroutine.
func (d *daemon) serve(ctx context.Context, handler http.Handler, tick func() error) error {
	publishExpvar(d.status)
	var srv *http.Server
	serveErr := make(chan error, 1)
	if d.opts.listen != "" {
		// Bound here and not in the goroutine, so ":0" works in tests
		// (onListen reports the bound address) and a bad -listen fails fast.
		ln, err := net.Listen("tcp", d.opts.listen)
		if err != nil {
			return err
		}
		if d.opts.onListen != nil {
			d.opts.onListen(ln.Addr().String())
		}
		srv = &http.Server{Handler: handler}
		go func() { serveErr <- srv.Serve(ln) }()
	}
	err := d.loop(ctx, tick)
	if srv == nil {
		return err
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if serr := srv.Shutdown(shutdownCtx); serr != nil {
		return errors.Join(err, serr)
	}
	if serr := <-serveErr; !errors.Is(serr, http.ErrServerClosed) {
		return errors.Join(err, serr)
	}
	return err
}

func (d *daemon) loop(ctx context.Context, tick func() error) error {
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
		if err := tick(); err != nil {
			return err
		}
	}
}

// admission is a decoded and checked POST /tasks body: the task as the
// cluster layer places it, the monitor sources as whichever daemon hosts the
// task builds them, and those sources checked here. A workload: source is
// checked without generating its series, which only the host generates.
type admission struct {
	spec    volley.ClusterTaskSpec
	host    shardHostSpec
	gate    *clusterGateRequest
	sources []checkedSource
}

// decodeAdmission reads a POST /tasks body. Every error is the client's.
func (d *daemon) decodeAdmission(r *http.Request) (admission, error) {
	var req clusterTaskRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return admission{}, err
	}
	if len(req.Monitors) == 0 {
		return admission{}, fmt.Errorf("task %q has no monitors", req.Name)
	}
	dir, err := parseDirection(req.Direction)
	if err != nil {
		return admission{}, err
	}
	host := shardHostSpec{Direction: req.Direction, MaxInterval: req.MaxInterval, Monitors: req.Monitors}
	sources, err := host.checkSources(d.agents)
	if err != nil {
		return admission{}, err
	}
	addrs := make([]string, len(req.Monitors))
	for i, m := range req.Monitors {
		addrs[i] = req.Name + "/mon/" + m.ID
	}
	return admission{
		spec: volley.ClusterTaskSpec{
			Name: req.Name, Threshold: req.Threshold, Direction: dir, Err: req.Err, Monitors: addrs,
		},
		host: host, gate: req.Gate, sources: sources,
	}, nil
}

// checkSources checks every monitor's ID and source, so one bad source
// rejects the whole task before any state is touched.
func (hs shardHostSpec) checkSources(pool *agentPool) ([]checkedSource, error) {
	out := make([]checkedSource, len(hs.Monitors))
	seen := make(map[string]bool, len(hs.Monitors))
	for i, m := range hs.Monitors {
		if m.ID == "" || seen[m.ID] {
			return nil, fmt.Errorf("monitor ID %q empty or duplicate", m.ID)
		}
		seen[m.ID] = true
		var err error
		if out[i], err = checkSource(m.Source, pool); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// buildAgents builds one agent per checked source. The workload: sources
// among them are built in one batch, which generates the series the daemon
// does not hold yet; each of their agents holds its family until
// releaseAgents.
func (d *daemon) buildAgents(srcs []checkedSource) ([]volley.Agent, error) {
	agents := make([]volley.Agent, len(srcs))
	for i, src := range srcs {
		agents[i] = src.agent
	}
	if err := d.workloads.build(srcs, agents); err != nil {
		return nil, err
	}
	return agents, nil
}

// releaseAgents lets go of what buildAgents' agents hold: a family's series
// go with the last agent reading it.
func (d *daemon) releaseAgents(agents []volley.Agent) {
	for _, a := range agents {
		if wa, ok := a.(*workloadAgent); ok {
			d.workloads.release(wa)
		}
	}
}
