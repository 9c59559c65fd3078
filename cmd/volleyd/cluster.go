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
	"strings"
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

// clusterUpdateRequest is the PATCH /tasks/{name} body: the task's new global
// threshold and error allowance. A task's threshold is chosen from history
// before it is admitted (volley.ThresholdForSelectivity); a retune names the
// threshold itself.
type clusterUpdateRequest struct {
	Threshold float64 `json:"threshold"`
	Err       float64 `json:"err"`
}

// clusterDaemon is cluster mode: the host with an in-process federation as
// its control plane. For gated tasks a correlation gate is hosted next to
// each monitor.
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
// per-shard readiness and the ring epoch. It reads the control plane's own
// counters: no task's coordinator is visited.
func (d *clusterDaemon) clusterStatus() map[string]any {
	st := d.cl.ControlStats()
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
	case len(d.hosted.Task(pred).Mons) == 0:
		return nil, fmt.Errorf("task %q: gate predictor %q is not admitted here", name, pred)
	case d.hosted.Task(pred).Pred != "":
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
	gates := make([]*volley.Gate, len(adm.spec.Monitors))
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
// shard. This mode hosts every task it admits, so the sources are built here
// and the POST returns with their series in place.
func (d *clusterDaemon) handleAdmit(w http.ResponseWriter, r *http.Request) {
	adm, err := d.decodeAdmission(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	agents, err := d.buildAgents(adm.sources)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	resp, code, err := d.admit(adm, agents)
	if err != nil {
		httpError(w, code, err)
		return
	}
	writeJSONStatus(w, http.StatusCreated, resp)
}

// admit hosts an admission over its built agents, or releases them and
// answers why not; the caller holds mu.
func (d *clusterDaemon) admit(adm admission, agents []volley.Agent) (map[string]any, int, error) {
	name := adm.spec.Name
	// The gate is checked and built before cluster state is touched, so a bad
	// gate spec rejects the admission with nothing to roll back but the
	// agents.
	gates, err := d.buildGates(adm)
	if err != nil {
		d.releaseAgents(agents)
		return nil, http.StatusBadRequest, err
	}
	shard, err := d.cl.Admit(adm.spec)
	if err != nil {
		d.releaseAgents(agents)
		return nil, http.StatusConflict, err
	}
	coord := d.cl.CoordinatorAddr(name)
	t, err := d.buildMonitors(adm.spec, adm.host.MaxInterval, agents, coord, gates)
	if err != nil {
		// Roll the half-admitted task back so the request is atomic.
		_ = d.cl.Evict(name)
		return nil, http.StatusBadRequest, err
	}
	resp := map[string]any{"name": name, "shard": shard, "coordinator": coord, "monitors": adm.spec.Monitors}
	if gates != nil {
		t.Pred = adm.gate.Predictor
		resp["gate"] = map[string]any{"predictor": t.Pred}
	}
	d.hosted.Put(name, t)
	return resp, 0, nil
}

// handleUpdate retunes a task's threshold and allowance: the cluster
// rescales the coordinator's allowance state and the daemon re-splits the
// hosted monitors' local thresholds. A body naming anything but threshold
// and err is refused, so a field this daemon does not know can never be
// read as threshold 0.
func (d *clusterDaemon) handleUpdate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req clusterUpdateRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		if strings.Contains(err.Error(), `unknown field "selectivity"`) {
			err = fmt.Errorf("task %q: a retune names a threshold; pick it from history before admission with volley.ThresholdForSelectivity", name)
		}
		httpError(w, http.StatusBadRequest, err)
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.cl.Update(name, req.Threshold, req.Err); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	mons := d.hosted.Task(name).Mons
	for _, m := range mons {
		if err := m.SetLocalThreshold(req.Threshold / float64(len(mons))); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
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
