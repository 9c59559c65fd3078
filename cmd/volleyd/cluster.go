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
	"fmt"
	"net/http"
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

// clusterSelectivityGrid is the grid of each hosted monitor's streaming
// sketch (percent); PATCH may ask any k in (0, 100).
var clusterSelectivityGrid = []float64{25, 10, 5, 2, 1, 0.5, 0.2, 0.1}

// clusterDaemon is cluster mode: the host with an in-process federation as
// its control plane. A per-monitor streaming sketch and, for gated tasks, a
// correlation gate are hosted next to each monitor.
type clusterDaemon struct {
	*monitorHost
	cl *volley.Cluster
}

// newClusterDaemon builds the cluster-mode runtime without serving or
// ticking it. The caller closes it.
func newClusterDaemon(opts options) (*clusterDaemon, error) {
	h, err := newMonitorHost(opts, "volleyd", 0)
	if err != nil {
		return nil, err
	}
	d := &clusterDaemon{monitorHost: h}
	d.gateArms = d.reg.Counter("volley_cluster_gate_arms_total",
		"Correlation gates armed by predictor violations (transitions from relaxed to adaptive).")
	// Bounded-memory threshold instrumentation: every sketch is one object of
	// constant size, so the footprint is the count times that constant and a
	// scrape walks nothing.
	one, err := volley.NewStreamingThresholds(clusterSelectivityGrid)
	if err != nil {
		return nil, errors.Join(err, d.close())
	}
	sketchBytes := int64(one.ResidentBytes())
	d.sketchRejected = d.reg.Counter("volley_sketch_rejected_total",
		"Non-finite sampled values rejected by the streaming sketches.")
	d.reg.GaugeFunc("volley_sketch_series",
		"Live streaming threshold sketches (one per hosted monitor).",
		func() float64 { return float64(d.sketches.Load()) })
	d.reg.GaugeFunc("volley_series_resident_bytes",
		"Total resident bytes of the live per-monitor streaming threshold sketches.",
		func() float64 { return float64(d.sketches.Load() * sketchBytes) })

	shards := make([]string, opts.shards)
	for i := range shards {
		shards[i] = fmt.Sprintf("shard-%d", i)
	}
	d.cl, err = volley.NewCluster(volley.ClusterConfig{
		Name:    "volleyd",
		Shards:  shards,
		Network: d.net,
		Metrics: d.reg,
		Tracer:  d.tracer,
		Alerts:  d.alertReg,
		OnAlert: newAlertPrinter(opts.out, "", d.alerts).print,
	})
	if err != nil {
		return nil, errors.Join(err, d.close())
	}
	d.control = d.cl.Tick
	d.status = d.clusterStatus
	return d, nil
}

// runCluster is cluster-mode main.
func runCluster(ctx context.Context, opts options) error {
	if opts.listen == "" {
		return fmt.Errorf("cluster mode needs -listen (the control plane is HTTP)")
	}
	d, err := newClusterDaemon(opts)
	if err != nil {
		return err
	}
	err = d.serve(ctx, d.mux(), func() error { d.tickOnce(); return nil })
	return errors.Join(err, d.close())
}

// clusterStatus is the /healthz (and expvar) payload: cluster-wide state plus
// per-shard readiness and the ring epoch.
func (d *clusterDaemon) clusterStatus() map[string]any {
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

// mux adds the cluster control plane to the shared routes.
func (d *clusterDaemon) mux() *http.ServeMux {
	mux := d.routes()
	mux.HandleFunc("GET /tasks", func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, d.cl.Tasks()) })
	mux.HandleFunc("POST /tasks", d.handleAdmit)
	mux.HandleFunc("PATCH /tasks/{name}", d.handleUpdate)
	mux.HandleFunc("DELETE /tasks/{name}", d.handleEvict)
	mux.HandleFunc("POST /shards", d.handleShardJoin)
	mux.HandleFunc("DELETE /shards/{id}", d.handleShardDrop)
	return mux
}

// buildGates checks an admission's gate request against the hosted set and
// builds one gate per monitor; nil when the task is not to be gated. The
// caller holds mu.
func (d *clusterDaemon) buildGates(adm admission) ([]*volley.Gate, error) {
	if adm.gate == nil {
		return nil, nil
	}
	name, pred := adm.spec.Name, adm.gate.Predictor
	switch {
	case pred == "":
		return nil, fmt.Errorf("task %q: gate needs a predictor task", name)
	case pred == name:
		return nil, fmt.Errorf("task %q cannot gate on itself", name)
	case len(d.hosted.tasks[pred].mons) == 0:
		return nil, fmt.Errorf("task %q: gate predictor %q is not admitted here", name, pred)
	case d.hosted.tasks[pred].pred != "":
		return nil, fmt.Errorf("task %q: predictor %q is itself gated (gate chains are not allowed)", name, pred)
	}
	relaxed := adm.gate.RelaxedInterval
	if relaxed == 0 {
		relaxed = 4 * d.maxIntervalOr(adm.host.MaxInterval)
	}
	hold := adm.gate.HoldDown
	if hold == 0 {
		hold = 10
	}
	gates := make([]*volley.Gate, len(adm.agents))
	for i := range gates {
		g, err := volley.NewGate(relaxed, hold)
		if err != nil {
			return nil, fmt.Errorf("task %q: %w", name, err)
		}
		gates[i] = g
	}
	return gates, nil
}

// handleAdmit admits a task: its monitors are built from the requested
// sources and hosted by the daemon, its coordinator placed on the owning
// shard.
func (d *clusterDaemon) handleAdmit(w http.ResponseWriter, r *http.Request) {
	adm, err := d.decodeAdmission(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	name := adm.spec.Name
	d.mu.Lock()
	defer d.mu.Unlock()
	// Gates and sketches are checked and built before cluster state is
	// touched, so a bad gate spec rejects the admission with nothing to roll
	// back.
	gates, err := d.buildGates(adm)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// One streaming sketch per monitor, fed from its sampled ticks.
	sks := make([]*volley.StreamingThresholds, len(adm.agents))
	for i := range sks {
		if sks[i], err = volley.NewStreamingThresholds(clusterSelectivityGrid); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
	}
	shard, err := d.cl.Admit(adm.spec)
	if err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	coord := d.cl.CoordinatorAddr(name)
	t, err := d.buildMonitors(adm.spec, adm.host.MaxInterval, adm.agents, coord, gates)
	if err != nil {
		// Roll the half-admitted task back so the request is atomic.
		_ = d.cl.Evict(name)
		httpError(w, http.StatusBadRequest, err)
		return
	}
	t.sks = sks
	resp := map[string]any{"name": name, "shard": shard, "coordinator": coord, "monitors": adm.spec.Monitors}
	if gates != nil {
		t.pred = adm.gate.Predictor
		resp["gate"] = map[string]any{"predictor": t.pred}
	}
	d.host(name, t)
	writeJSONStatus(w, http.StatusCreated, resp)
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
	mons := d.hosted.tasks[name].mons
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
	t := d.hosted.tasks[name]
	if len(t.mons) == 0 {
		httpError(w, http.StatusNotFound, fmt.Errorf("task %q not hosted here", name))
		return
	}
	sks := t.sks
	d.skMu.Lock()
	locals := make([]float64, len(sks))
	samples := make([]int, len(sks))
	var total, rankErr float64
	var derr error
	for i, sk := range sks {
		locals[i], derr = sk.Threshold(req.Selectivity)
		if derr != nil {
			break
		}
		samples[i] = sk.N()
		total += locals[i]
		rankErr = max(rankErr, sk.RankError())
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
	for i, m := range t.mons {
		if err := m.SetLocalThreshold(locals[i]); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
	}
	writeJSON(w, map[string]any{
		"name": name, "selectivity": req.Selectivity, "err": req.Err,
		"threshold": total, "localThresholds": locals, "samples": samples, "rankError": rankErr,
	})
}

// handleEvict removes a task and the monitors hosted for it. If the task was
// a gate predictor its dependents keep their gates but nothing arms them any
// more: they sample at the relaxed interval until they are themselves evicted
// (documented on clusterGateRequest).
func (d *clusterDaemon) handleEvict(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.cl.Evict(name); err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	d.unhost(name)
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
