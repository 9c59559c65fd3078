// Shard mode: with -shard-id volleyd runs ONE shard of a cross-process
// monitoring cluster. Each shard is its own process: shards gossip
// membership and the task catalog over a hardened TCP fabric, place tasks
// on a consistent-hash ring, host the coordinator and monitors of the
// tasks they own, and replicate each owned task's allowance snapshots to
// the task's ring successor — so when a shard is killed without warning,
// the successor re-admits its tasks warm from the last shipped snapshot.
//
//	volleyd -shard-id a -peer-listen 127.0.0.1:7001 \
//	        -peers b=127.0.0.1:7002,c=127.0.0.1:7003 \
//	        -interval 1s -listen :9464
//
// Tasks are admitted on any shard (POST /tasks, same body as cluster
// mode) and gossip to the rest; /cluster reports the shard's membership
// view, ring digest, owned tasks and held replica snapshots. PATCH
// /tasks/{name}/allowance overrides the owner's per-monitor allowance.
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
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"volley/internal/alerts"
	"volley/internal/cluster"
	"volley/internal/core"
	"volley/internal/monitor"
	"volley/internal/obs"
	"volley/internal/transport"
)

// shardHostSpec is the gossiped description of a task's monitor sources:
// whichever shard owns the task builds its monitors from it. It travels
// opaquely through the cluster layer as JSON.
type shardHostSpec struct {
	Direction   string                  `json:"direction,omitempty"`
	MaxInterval int                     `json:"maxInterval,omitempty"`
	Monitors    []clusterMonitorRequest `json:"monitors"`
}

// tcpFabric adapts a TCPNode to transport.Network. The TCP node needs its
// handler at listen time, before the cluster node that handles messages
// exists, so the handler indirects through an atomic pointer and Register
// just checks the address claim. Deregister tears down dead peers'
// outbound state (satisfying transport.Deregisterer, so the cluster node
// stops reconnect loops to crashed shards).
type tcpFabric struct {
	node    *transport.TCPNode
	handler atomic.Pointer[transport.Handler]
}

func newTCPFabric(listen string, tr *obs.Tracer, name string, opts ...transport.TCPOption) (*tcpFabric, error) {
	f := &tcpFabric{}
	opts = append([]transport.TCPOption{transport.WithObserver(tr, name)}, opts...)
	node, err := transport.ListenTCP(listen, func(msg transport.Message) {
		if h := f.handler.Load(); h != nil {
			(*h)(msg)
		}
	}, opts...)
	if err != nil {
		return nil, err
	}
	f.node = node
	return f, nil
}

func (f *tcpFabric) Register(addr string, h transport.Handler) error {
	if addr != f.node.Addr() {
		return fmt.Errorf("volleyd: register %q on TCP fabric listening at %q", addr, f.node.Addr())
	}
	if !f.handler.CompareAndSwap(nil, &h) {
		return fmt.Errorf("volleyd: address %q already registered", addr)
	}
	return nil
}

func (f *tcpFabric) Send(from, to string, msg transport.Message) error {
	return f.node.Send(from, to, msg)
}

func (f *tcpFabric) Deregister(addr string) error { return f.node.Deregister(addr) }

// shardDaemon owns the shard-mode runtime: the cluster node, the TCP
// fabric, the in-process monitor network, and the monitors hosted for
// owned tasks. It implements cluster.TaskHost — the node calls StartTask
// and StopTask as ownership moves.
type shardDaemon struct {
	opts     options
	node     *cluster.Node
	fabric   *tcpFabric
	local    *transport.Memory
	reg      *obs.Registry
	tracer   *obs.Tracer
	alerts   *obs.Counter
	alertReg *alerts.Registry
	agents   *agentPool // the hosted monitors' HTTP agents' connections
	start    time.Time

	eventsSink, historySink *fileSink

	mu     sync.Mutex
	hosted hostedSet // the monitors hosted for owned tasks
	step   uint64

	// plan is the hosted set flattened for tickOnce; it belongs to the
	// goroutine that ticks.
	plan tickPlan
}

// now is the virtual clock position of the last completed tick, stamping
// alert lifecycle operations from HTTP handlers.
func (d *shardDaemon) now() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return time.Duration(d.step) * d.opts.interval
}

// parsePeerList parses "id=host:port,id=host:port" into members.
func parsePeerList(s string) ([]cluster.Member, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []cluster.Member
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad peer %q (want id=host:port)", part)
		}
		out = append(out, cluster.Member{ID: id, Addr: addr})
	}
	return out, nil
}

// newShardDaemon builds the shard-mode runtime — sinks, instruments, the
// TCP fabric and the cluster node — without serving or ticking it. The
// caller closes it.
func newShardDaemon(opts options) (_ *shardDaemon, err error) {
	if opts.interval <= 0 {
		return nil, fmt.Errorf("interval must be positive, got %v", opts.interval)
	}
	if opts.maxInterval < 1 {
		return nil, fmt.Errorf("max-interval must be at least 1, got %d", opts.maxInterval)
	}
	if opts.peerListen == "" {
		return nil, fmt.Errorf("shard mode needs -peer-listen (the inter-shard fabric)")
	}
	peers, err := parsePeerList(opts.peers)
	if err != nil {
		return nil, err
	}

	reg := obs.NewRegistry()
	d := &shardDaemon{
		opts:   opts,
		local:  transport.NewMemory(),
		reg:    reg,
		agents: newAgentPool(reg),
		start:  time.Now(),
		hosted: newHostedSet(),
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, d.close())
		}
	}()
	if d.eventsSink, err = openFileSink(opts.eventsFile); err != nil {
		return nil, err
	}
	if d.historySink, err = openFileSink(opts.alertHist); err != nil {
		return nil, err
	}
	tracerOpts := []obs.TracerOption{
		obs.WithNowFunc(func() time.Duration { return time.Since(d.start) }),
	}
	if opts.events {
		tracerOpts = append(tracerOpts, obs.WithJSONLSink(opts.out))
	}
	if d.eventsSink != nil {
		tracerOpts = append(tracerOpts, obs.WithJSONLSink(d.eventsSink))
	}
	d.tracer = obs.NewTracer(4096, tracerOpts...)
	d.alerts = d.reg.Counter("volleyd_alerts_total", "State alerts raised across all owned tasks.")
	d.reg.GaugeFunc("volleyd_uptime_seconds", "Seconds since daemon start.", func() float64 {
		return time.Since(d.start).Seconds()
	})
	obs.RegisterBuildInfo(d.reg, d.start)
	alertCfg := alerts.Config{
		Node:    opts.shardID,
		TTL:     opts.alertTTL,
		Metrics: d.reg,
		Tracer:  d.tracer,
	}
	if d.historySink != nil {
		alertCfg.History = d.historySink
	}
	d.alertReg = alerts.New(alertCfg)

	fabricOpts := []transport.TCPOption{}
	if opts.batchWindow != 0 {
		fabricOpts = append(fabricOpts, transport.WithBatchWindow(opts.batchWindow))
	}
	if opts.maxBatch != 0 {
		fabricOpts = append(fabricOpts, transport.WithMaxBatch(opts.maxBatch))
	}
	if opts.gobWire {
		fabricOpts = append(fabricOpts, transport.WithCodec(transport.CodecGob))
	}
	d.fabric, err = newTCPFabric(opts.peerListen, d.tracer, opts.shardID, fabricOpts...)
	if err != nil {
		return nil, err
	}
	// Wire traffic next to the task metrics: bytes on the fabric, frames
	// coalesced, queue depths per peer.
	d.fabric.node.RegisterMetrics(d.reg)

	printer := newAlertPrinter(opts.out, opts.shardID)
	d.node, err = cluster.NewNode(cluster.NodeConfig{
		ID:            opts.shardID,
		Addr:          d.fabric.node.Addr(),
		Peers:         peers,
		Inter:         d.fabric,
		Local:         d.local,
		Host:          d,
		BeaconEvery:   opts.beaconEvery,
		SuspectAfter:  opts.suspectAfter,
		DeadAfter:     opts.deadAfter,
		SnapshotEvery: opts.snapshotEvery,
		OnAlert: func(task string, now time.Duration, total float64) {
			d.alerts.Inc()
			printer.print(task, now, total)
		},
		Metrics: d.reg,
		Tracer:  d.tracer,
		Alerts:  d.alertReg,
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// close stops the fabric, drops the agents' idle connections and flushes the
// JSONL tails.
func (d *shardDaemon) close() error {
	d.agents.close()
	if d.fabric != nil {
		_ = d.fabric.node.Close()
	}
	return closeSinks(d.eventsSink, d.historySink)
}

// runShard is shard-mode main.
func runShard(ctx context.Context, opts options) error {
	if opts.listen == "" {
		return fmt.Errorf("shard mode needs -listen (the control plane is HTTP)")
	}
	d, err := newShardDaemon(opts)
	if err != nil {
		return err
	}
	defer func() {
		// On every exit path, including listener setup errors.
		if err := d.close(); err != nil {
			fmt.Fprintln(os.Stderr, "volleyd: close sinks:", err)
		}
	}()
	publishExpvar(d.status)

	ln, err := net.Listen("tcp", opts.listen)
	if err != nil {
		return err
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
		return errors.Join(loopErr, err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return errors.Join(loopErr, err)
	}
	return loopErr
}

// loop drives the node and the hosted monitors once per -interval on a
// virtual clock (tick count × interval), the same time base the other
// modes use, so liveness and replication horizons configured in ticks
// never skew with wall-clock jitter.
func (d *shardDaemon) loop(ctx context.Context) error {
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

// tickOnce is one tick: the node, then every hosted monitor.
func (d *shardDaemon) tickOnce() {
	d.mu.Lock()
	now := time.Duration(d.step+1) * d.opts.interval
	d.step++
	d.mu.Unlock()
	// Tick the node first: ownership changes (StartTask/StopTask) settle
	// before the monitor pass looks at the hosted set.
	d.node.Tick(now)
	d.mu.Lock()
	if d.plan.gen != d.hosted.gen {
		d.plan.refresh(&d.hosted, nil, nil, nil)
	}
	d.mu.Unlock()
	d.plan.tickMonitors(now)
	d.agents.sweep(time.Now())
}

// StartTask implements cluster.TaskHost: it builds and hosts the task's
// monitors from the gossiped host spec, pointed at the owning
// coordinator. Called by the node while it holds its own lock; only d.mu
// is taken here (lock order: node → daemon, never the reverse while
// calling into the node).
func (d *shardDaemon) StartTask(spec cluster.TaskSpec, hostSpec []byte, coordAddr string) error {
	var hs shardHostSpec
	if err := json.Unmarshal(hostSpec, &hs); err != nil {
		return fmt.Errorf("host spec for %q: %w", spec.Name, err)
	}
	dir, err := parseDirection(hs.Direction)
	if err != nil {
		return err
	}
	maxInterval := hs.MaxInterval
	if maxInterval == 0 {
		maxInterval = d.opts.maxInterval
	}
	n := float64(len(hs.Monitors))
	if n == 0 {
		return fmt.Errorf("host spec for %q has no monitors", spec.Name)
	}
	mons := make([]*monitor.Monitor, len(hs.Monitors))
	addrs := make([]string, len(hs.Monitors))
	for i, mreq := range hs.Monitors {
		agent, err := buildAgent(mreq.Source, d.agents)
		if err != nil {
			return err
		}
		addrs[i] = spec.Name + "/mon/" + mreq.ID
		mons[i], err = monitor.New(monitor.Config{
			ID:    addrs[i],
			Task:  spec.Name,
			Agent: agent,
			Sampler: core.Config{
				// The local task decomposition: an even split of the global
				// threshold and allowance; the coordinator re-tunes the
				// allowance shares from yield reports as the run learns.
				Threshold:   spec.Threshold / n,
				Direction:   core.Direction(dir),
				Err:         spec.Err / n,
				MaxInterval: maxInterval,
			},
			Network:        d.local,
			Coordinator:    coordAddr,
			YieldEvery:     100,
			HeartbeatEvery: 10,
			Metrics:        d.reg,
			Tracer:         d.tracer,
			Alerts:         d.alertReg,
		})
		if err != nil {
			for _, a := range addrs[:i] {
				_ = d.local.Deregister(a)
			}
			return err
		}
	}
	d.mu.Lock()
	d.hosted.put(spec.Name, mons)
	d.mu.Unlock()
	return nil
}

// StopTask implements cluster.TaskHost: the task's monitors are dropped
// and their addresses freed.
func (d *shardDaemon) StopTask(name string) error {
	d.mu.Lock()
	mons := d.hosted.remove(name)
	d.mu.Unlock()
	for _, m := range mons {
		_ = d.local.Deregister(m.ID())
	}
	return nil
}

// status is the /healthz (and expvar) payload.
func (d *shardDaemon) status() map[string]any {
	st := d.node.Status()
	return map[string]any{
		"status":         "ok",
		"mode":           "shard",
		"shard":          st.ID,
		"uptime_seconds": time.Since(d.start).Seconds(),
		"ring_digest":    fmt.Sprintf("%016x", st.RingDigest),
		"ring_members":   st.RingMembers,
		"owned":          len(st.Owned),
		"catalog":        st.CatalogLive,
		"cold_starts":    st.ColdStarts,
		"recoveries":     st.Recoveries,
		"alerts":         d.alerts.Value(),
	}
}

// mux wires the shard control plane and the observability endpoints.
func (d *shardDaemon) mux() *http.ServeMux {
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
	mux.HandleFunc("/cluster", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(d.node.Status())
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
		_ = json.NewEncoder(w).Encode(d.node.Catalog())
	})
	mux.HandleFunc("POST /tasks", d.handleShardAdmit)
	mux.HandleFunc("DELETE /tasks/{name}", d.handleShardRemove)
	mux.HandleFunc("PATCH /tasks/{name}/allowance", d.handleShardAllowance)
	return mux
}

// handleShardAdmit enters a task into the gossiped catalog. The sources
// are validated here (every shard runs the same binary, so a source that
// builds here builds on the owner); ownership is decided by the ring on
// the next tick and may land on any shard.
func (d *shardDaemon) handleShardAdmit(w http.ResponseWriter, r *http.Request) {
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
	addrs := make([]string, len(req.Monitors))
	seen := make(map[string]bool, len(req.Monitors))
	for i, m := range req.Monitors {
		if m.ID == "" || seen[m.ID] {
			httpError(w, http.StatusBadRequest, fmt.Errorf("monitor ID %q empty or duplicate", m.ID))
			return
		}
		seen[m.ID] = true
		if _, err := buildAgent(m.Source, d.agents); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		addrs[i] = req.Name + "/mon/" + m.ID
	}
	hostSpec, err := json.Marshal(shardHostSpec{
		Direction:   req.Direction,
		MaxInterval: req.MaxInterval,
		Monitors:    req.Monitors,
	})
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if err := d.node.Admit(cluster.TaskSpec{
		Name:      req.Name,
		Threshold: req.Threshold,
		Direction: core.Direction(dir),
		Err:       req.Err,
		Monitors:  addrs,
	}, hostSpec); err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"name": req.Name, "monitors": addrs,
	})
}

// handleShardRemove tombstones a task; every shard evicts it as the
// tombstone gossips.
func (d *shardDaemon) handleShardRemove(w http.ResponseWriter, r *http.Request) {
	if err := d.node.Remove(r.PathValue("name")); err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// shardAllowanceRequest is the PATCH /tasks/{name}/allowance body: a full
// per-monitor allowance override, keyed by monitor address.
type shardAllowanceRequest struct {
	Assignments map[string]float64 `json:"assignments"`
}

// handleShardAllowance overrides an owned task's allowance distribution.
// Only the owning shard accepts it (409 elsewhere — read /cluster to find
// the owner); the override replicates to the ring successor with the next
// tick's snapshot ship.
func (d *shardDaemon) handleShardAllowance(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req shardAllowanceRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Assignments) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("empty assignments"))
		return
	}
	if err := d.node.SetAllowance(name, req.Assignments); err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
