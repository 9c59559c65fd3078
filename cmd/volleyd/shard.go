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
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"volley"
	"volley/internal/cluster"
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

func newTCPFabric(listen string, tr *volley.Tracer, name string, opts ...transport.TCPOption) (*tcpFabric, error) {
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

// shardDaemon is shard mode: the host with a cluster node over a TCP fabric
// as its control plane. It implements cluster.TaskHost — the node calls
// StartTask and StopTask as ownership moves.
type shardDaemon struct {
	*monitorHost
	node   *cluster.Node
	fabric *tcpFabric
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

// newShardDaemon builds the shard-mode runtime — the TCP fabric and the
// cluster node on top of the host — without serving or ticking it. The caller
// closes it.
func newShardDaemon(opts options) (_ *shardDaemon, err error) {
	if opts.peerListen == "" {
		return nil, fmt.Errorf("shard mode needs -peer-listen (the inter-shard fabric)")
	}
	peers, err := parsePeerList(opts.peers)
	if err != nil {
		return nil, err
	}
	h, err := newMonitorHost(opts, opts.shardID, 1)
	if err != nil {
		return nil, err
	}
	d := &shardDaemon{monitorHost: h}
	defer func() {
		if err != nil {
			err = errors.Join(err, d.close())
		}
	}()

	fabricOpts := []transport.TCPOption{}
	if opts.batchWindow != 0 {
		fabricOpts = append(fabricOpts, transport.WithBatchWindow(opts.batchWindow))
	}
	if opts.maxBatch != 0 {
		fabricOpts = append(fabricOpts, transport.WithMaxBatch(opts.maxBatch))
	}
	d.fabric, err = newTCPFabric(opts.peerListen, d.tracer, opts.shardID, fabricOpts...)
	if err != nil {
		return nil, err
	}
	// Wire traffic next to the task metrics: bytes on the fabric, frames
	// coalesced, queue depths per peer.
	d.fabric.node.RegisterMetrics(d.reg)

	d.node, err = cluster.NewNode(cluster.NodeConfig{
		ID:            opts.shardID,
		Addr:          d.fabric.node.Addr(),
		Peers:         peers,
		Inter:         d.fabric,
		Local:         d.net,
		Host:          d,
		BeaconEvery:   opts.beaconEvery,
		SuspectAfter:  opts.suspectAfter,
		DeadAfter:     opts.deadAfter,
		SnapshotEvery: opts.snapshotEvery,
		OnAlert:       newAlertPrinter(opts.out, opts.shardID, d.alerts).print,
		Metrics:       d.reg,
		Tracer:        d.tracer,
		Alerts:        d.alertReg,
	})
	if err != nil {
		return nil, err
	}
	d.control = d.node.Tick
	d.status = d.shardStatus
	return d, nil
}

// close stops the fabric before the sinks its tracer writes to are closed.
func (d *shardDaemon) close() error {
	if d.fabric != nil {
		_ = d.fabric.node.Close()
	}
	return d.monitorHost.close()
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
	err = d.serve(ctx, d.mux(), func() error { d.tickOnce(); return nil })
	return errors.Join(err, d.close())
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
	// The owner builds the sources: here, under the node's lock, the series
	// this shard lacks are generated.
	srcs, err := hs.checkSources(d.agents)
	if err != nil {
		return err
	}
	agents, err := d.buildAgents(srcs)
	if err != nil {
		return err
	}
	t, err := d.buildMonitors(spec, hs.MaxInterval, agents, coordAddr, nil)
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.hosted.Put(spec.Name, t)
	d.mu.Unlock()
	return nil
}

// StopTask implements cluster.TaskHost: the task's monitors are dropped
// and their addresses freed.
func (d *shardDaemon) StopTask(name string) error {
	d.mu.Lock()
	d.unhost(name)
	d.mu.Unlock()
	return nil
}

// shardStatus is the /healthz (and expvar) payload: the node's counts, read
// without copying its state (GET /cluster is the full dump).
func (d *shardDaemon) shardStatus() map[string]any {
	st := d.node.Health()
	return map[string]any{
		"status":         "ok",
		"mode":           "shard",
		"shard":          st.ID,
		"uptime_seconds": time.Since(d.start).Seconds(),
		"ring_digest":    fmt.Sprintf("%016x", st.RingDigest),
		"ring_members":   st.RingMembers,
		"owned":          st.Owned,
		"catalog":        st.CatalogLive,
		"cold_starts":    st.ColdStarts,
		"recoveries":     st.Recoveries,
		"alerts":         d.alerts.Value(),
	}
}

// mux adds the shard control plane to the shared routes.
func (d *shardDaemon) mux() *http.ServeMux {
	mux := d.routes()
	mux.HandleFunc("/cluster", func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, d.node.Status()) })
	mux.HandleFunc("GET /tasks", func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, d.node.Catalog()) })
	mux.HandleFunc("POST /tasks", d.handleShardAdmit)
	mux.HandleFunc("DELETE /tasks/{name}", d.handleShardRemove)
	mux.HandleFunc("PATCH /tasks/{name}/allowance", d.handleShardAllowance)
	return mux
}

// handleShardAdmit enters a task into the gossiped catalog. The sources
// are checked here without being built (every shard runs the same binary, so
// a source that checks here builds on the owner); ownership is decided by the
// ring on the next tick and may land on any shard, which builds them.
func (d *shardDaemon) handleShardAdmit(w http.ResponseWriter, r *http.Request) {
	adm, err := d.decodeAdmission(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	hostSpec, err := json.Marshal(adm.host)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if err := d.node.Admit(adm.spec, hostSpec); err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	writeJSONStatus(w, http.StatusCreated, map[string]any{"name": adm.spec.Name, "monitors": adm.spec.Monitors})
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
