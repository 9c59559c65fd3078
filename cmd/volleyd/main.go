// Command volleyd is a small adaptive monitoring daemon: it watches one
// numeric signal — the output of a command or the body of an HTTP endpoint
// — with Volley's violation-likelihood based sampling, logs state alerts as
// JSON lines, and optionally serves Prometheus-style metrics about its own
// behavior.
//
// The daemon samples at the default interval only while a violation is
// plausible; when the signal is far from the threshold it stretches the
// probe interval up to -max-interval times, cutting probe cost exactly the
// way the paper cuts datacenter monitoring cost.
//
// Usage:
//
//	volleyd -source 'cmd:sh -c "wc -l < /var/log/app.log"' \
//	        -interval 5s -threshold 10000 -err 0.01
//
//	volleyd -source http://localhost:8080/queue-depth \
//	        -interval 1s -threshold 500 -err 0.01 -listen :9464
//
// Flags:
//
//	-source     cmd:<command line> (run by sh -c) or an http(s) URL; either
//	            must print a number and is given 10 s. URLs are read with
//	            GET over HTTP/1.1 on kept connections: Content-Length,
//	            chunked and close-delimited bodies of which the first 64 KiB
//	            are looked at, status 200 only, TLS against the system
//	            roots, user:password@ sent as Basic credentials. Redirects
//	            are not followed, HTTP(S)_PROXY is not consulted, HTTP/2 is
//	            not spoken.
//	-interval   default sampling interval Id
//	-threshold  alert threshold T
//	-direction  above (default) or below
//	-err        error allowance (default 0.01)
//	-max-interval  largest interval in units of Id (default 20)
//	-window     optional aggregation window (in intervals) over which the
//	            moving mean is monitored instead of raw values
//	-listen     address to serve the observability endpoints on — optional
//	            here, required with -shards and -shard-id, the same set in
//	            all three: /metrics (Prometheus text), /healthz (JSON
//	            liveness), /debug/vars (expvar), /debug/events (recent
//	            decision events as JSON), the /alerts operator API and
//	            /debug/pprof/* complete (index, cmdline, profile, symbol,
//	            trace)
//	-events     also tail decision events (interval grow/reset, violations)
//	            as JSON lines on stdout, interleaved with the sample log
//	-duration   optional run duration (default: run forever)
//	-state      optional file persisting sampler state across restarts
//
// -shards N (cluster.go) and -shard-id (shard.go) run the same daemon core
// (daemon.go) under a task control plane instead of one sampler.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
	"unicode"

	"volley"
	"volley/internal/transport"
)

func main() {
	var (
		source      = flag.String("source", "", `signal source: "cmd:<command>" or an http(s) URL printing a number (HTTP/1.1 GET, status 200, no redirects, no proxy; 10 s deadline)`)
		interval    = flag.Duration("interval", 5*time.Second, "default sampling interval Id")
		threshold   = flag.Float64("threshold", 0, "alert threshold T")
		direction   = flag.String("direction", "above", "violating side of the threshold: above or below")
		errAllow    = flag.Float64("err", 0.01, "error allowance")
		maxInterval = flag.Int("max-interval", 20, "maximum interval in units of Id")
		window      = flag.Int("window", 0, "aggregation window in intervals (0 = monitor raw values)")
		listen      = flag.String("listen", "", "serve /metrics, /healthz, /debug/vars, /debug/pprof and /debug/events on this address")
		events      = flag.Bool("events", false, "tail decision events as JSON lines on stdout")
		duration    = flag.Duration("duration", 0, "stop after this long (0 = run until signalled)")
		stateFile   = flag.String("state", "", "persist sampler state to this file and restore it on start")
		eventsFile  = flag.String("events-file", "", "append decision events as JSON lines to this file (flushed on shutdown)")
		alertHist   = flag.String("alert-history", "", "append alert lifecycle transitions as JSON lines to this file (flushed on shutdown)")
		alertTTL    = flag.Duration("alert-ttl", 0, "expire live alerts not re-confirmed for this long (0 = never)")
		shards      = flag.Int("shards", 0, "run a sharded monitoring cluster with this many coordinator shards; tasks are admitted over HTTP (see cluster.go)")

		shardID       = flag.String("shard-id", "", "run as one networked cluster shard with this identity; requires -peer-listen (see shard.go)")
		peerListen    = flag.String("peer-listen", "", "TCP address for inter-shard traffic (beacons + snapshots)")
		peers         = flag.String("peers", "", `seed peers as "id=host:port,id=host:port"`)
		beaconEvery   = flag.Int("beacon-every", 2, "gossip beacon period in ticks (shard mode)")
		suspectAfter  = flag.Int("suspect-after", 8, "ticks of silence before a peer is suspected (shard mode)")
		deadAfter     = flag.Int("dead-after", 16, "ticks of silence before a peer is declared dead (shard mode)")
		snapshotEvery = flag.Int("snapshot-every", 5, "allowance snapshot replication period in ticks (shard mode)")
		batchWindow   = flag.Duration("batch-window", 0, "how long the peer writer waits to coalesce more messages into one frame (shard mode; 0 = ship whatever is already queued)")
		maxBatch      = flag.Int("max-batch", transport.DefaultMaxBatch, "max messages per coalesced frame on the inter-shard fabric (shard mode; 1 disables batching)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, options{
		source:      *source,
		interval:    *interval,
		threshold:   *threshold,
		direction:   *direction,
		errAllow:    *errAllow,
		maxInterval: *maxInterval,
		window:      *window,
		listen:      *listen,
		events:      *events,
		duration:    *duration,
		stateFile:   *stateFile,
		eventsFile:  *eventsFile,
		alertHist:   *alertHist,
		alertTTL:    *alertTTL,
		shards:      *shards,

		shardID:       *shardID,
		peerListen:    *peerListen,
		peers:         *peers,
		beaconEvery:   *beaconEvery,
		suspectAfter:  *suspectAfter,
		deadAfter:     *deadAfter,
		snapshotEvery: *snapshotEvery,
		batchWindow:   *batchWindow,
		maxBatch:      *maxBatch,

		out: os.Stdout,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "volleyd:", err)
		os.Exit(1)
	}
}

type options struct {
	source      string
	interval    time.Duration
	threshold   float64
	direction   string
	errAllow    float64
	maxInterval int
	window      int
	listen      string
	events      bool
	duration    time.Duration
	stateFile   string
	eventsFile  string        // JSONL decision-event sink, flushed on shutdown
	alertHist   string        // JSONL alert-history sink, flushed on shutdown
	alertTTL    time.Duration // live alerts expire after this re-raise silence
	shards      int           // > 0 switches to cluster mode (cluster.go)

	// Networked shard mode (shard.go): non-empty shardID switches the
	// daemon to one cluster shard speaking TCP to its peers.
	shardID       string
	peerListen    string
	peers         string
	beaconEvery   int
	suspectAfter  int
	deadAfter     int
	snapshotEvery int
	batchWindow   time.Duration
	maxBatch      int

	out      io.Writer
	onListen func(addr string) // test hook: reports the bound address
}

// event is one JSON log line.
type event struct {
	Time     time.Time `json:"time"`
	Kind     string    `json:"kind"` // "sample", "alert", "error"
	Value    float64   `json:"value,omitempty"`
	Interval int       `json:"interval,omitempty"`
	Bound    float64   `json:"bound,omitempty"`
	Err      string    `json:"err,omitempty"`
}

func run(ctx context.Context, opts options) error {
	switch {
	case opts.shardID != "":
		return runShard(ctx, opts)
	case opts.shards > 0:
		return runCluster(ctx, opts)
	}
	return runSignal(ctx, opts)
}

// runSignal is single-signal mode's main: one sampler (or one windowed
// aggregate) over one agent, with -state persistence; -listen is optional.
func runSignal(ctx context.Context, opts options) (err error) {
	d, err := newDaemon(opts, "volleyd")
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, d.close()) }()
	l := &signalLoop{daemon: d, enc: json.NewEncoder(opts.out), interval: 1}
	if l.agent, err = buildAgent(opts.source, d.agents); err != nil {
		return err
	}
	dir, err := parseDirection(opts.direction)
	if err != nil {
		return err
	}
	cfg := volley.SamplerConfig{
		Threshold:   opts.threshold,
		Direction:   dir,
		Err:         opts.errAllow,
		MaxInterval: opts.maxInterval,
	}
	if opts.window > 0 {
		l.agg, err = volley.NewAggregateSampler(cfg, volley.AggregateMean, opts.window)
	} else {
		l.sampler, err = volley.NewSampler(cfg)
	}
	if err != nil {
		return err
	}

	// State persistence: resume the learned interval and δ statistics
	// across daemon restarts. Aggregation windows are not persisted (the
	// held ring refills within one window).
	stateSampler := l.sampler
	if l.agg != nil {
		stateSampler = l.agg.Inner()
	}
	if opts.stateFile != "" {
		if err := restoreState(opts.stateFile, stateSampler); err != nil {
			return err
		}
		defer func() {
			if err := saveState(opts.stateFile, stateSampler); err != nil {
				fmt.Fprintln(os.Stderr, "volleyd: save state:", err)
			}
		}()
	}

	reg := d.reg
	samplesTotal := reg.Counter("volley_sampler_observations_total", "Adaptive sampling operations.", "instance", "volleyd")
	intervalGauge := reg.Gauge("volley_sampler_interval", "Current sampling interval in default intervals.", "instance", "volleyd")
	boundGauge := reg.Gauge("volley_sampler_bound", "Last mis-detection bound.", "instance", "volleyd")
	l.errs = reg.Counter("volleyd_agent_errors_total", "Failed sampling attempts.")
	l.value = reg.Gauge("volleyd_last_value", "Most recently sampled value.")
	stateSampler.Instrument(volley.SamplerObs{
		Tracer:       d.tracer,
		Node:         "volleyd",
		Task:         opts.source,
		Observations: samplesTotal,
		Grows:        reg.Counter("volley_sampler_interval_grows_total", "Interval growth decisions.", "instance", "volleyd"),
		Resets:       reg.Counter("volley_sampler_interval_resets_total", "Interval reset decisions.", "instance", "volleyd"),
		Intervals:    intervalGauge, // the sum over one sampler: its interval
		Bound:        boundGauge,
		BoundDist:    reg.Histogram("volley_sampler_bound_dist", "Distribution of mis-detection bounds.", volley.DefBoundBuckets, "instance", "volleyd"),
	})
	d.status = func() map[string]any {
		return map[string]any{
			"status":         "ok",
			"source":         opts.source,
			"uptime_seconds": time.Since(d.start).Seconds(),
			"samples":        samplesTotal.Value(),
			"alerts":         d.alerts.Value(),
			"agent_errors":   l.errs.Value(),
			"interval":       intervalGauge.Value(),
			"bound":          boundGauge.Value(),
		}
	}
	// Alert lifecycle operations run on the wall clock since start here.
	d.now = func() time.Duration { return time.Since(d.start) }
	return d.serve(ctx, d.routes(), l.tick)
}

// signalLoop is single-signal mode's sampling state between ticks.
type signalLoop struct {
	*daemon
	agent   volley.Agent
	sampler *volley.Sampler
	agg     *volley.AggregateSampler
	errs    *volley.Counter
	value   *volley.Gauge
	enc     *json.Encoder

	interval  int // the sampler's current interval, in default intervals
	untilNext int // ticks to sit out before the next sample
}

// tick runs once per default interval and samples when the sampler's
// stretched interval has run out. Only a failing aggregate ends the run.
func (l *signalLoop) tick() error {
	// TTL expiry runs on the raw tick clock, not the stretched sampling
	// clock, so an episode whose signal goes quiet still expires.
	l.alertReg.Tick(l.now())
	if l.untilNext > 0 {
		l.untilNext--
		return nil
	}
	value, sampleErr := l.agent.Sample()
	now := time.Now()
	if sampleErr != nil {
		l.errs.Inc()
		_ = l.enc.Encode(event{Time: now, Kind: "error", Err: sampleErr.Error()})
		return nil // retry at the next default interval
	}
	l.value.Set(value)

	var violating bool
	var bound float64
	if l.agg != nil {
		iv, obsErr := l.agg.Observe(value, l.interval)
		if obsErr != nil {
			return obsErr
		}
		l.interval = iv
		violating = l.agg.Violates()
		bound = l.agg.Bound()
		value = l.agg.Value()
	} else {
		l.interval = l.sampler.Observe(value)
		violating = l.sampler.Violates(value)
		bound = l.sampler.Bound()
	}
	l.untilNext = l.interval - 1

	kind := "sample"
	if violating {
		kind = "alert"
		l.alerts.Inc()
		l.tracer.Record(volley.TraceEvent{
			Type: volley.TraceViolation, Node: "volleyd", Task: l.opts.source,
			Value: value, Bound: bound, Interval: l.interval,
		})
		// A violating sample raises (or dedups into) the task's live
		// alert; a clean sample ends the episode.
		l.alertReg.Raise(l.opts.source, l.now(), value)
	} else {
		l.alertReg.Clear(l.opts.source, l.now(), value)
	}
	_ = l.enc.Encode(event{
		Time:     now,
		Kind:     kind,
		Value:    value,
		Interval: l.interval,
		Bound:    bound,
	})
	return nil
}

// currentStatus lets the process-global expvar publication follow the most
// recent run (tests run the daemon repeatedly; expvar.Publish panics on
// duplicate names, so the var is published once and re-pointed per run).
var currentStatus atomic.Value // of func() map[string]any

func publishExpvar(status func() map[string]any) {
	currentStatus.Store(status)
	if expvar.Get("volleyd") != nil {
		return
	}
	expvar.Publish("volleyd", expvar.Func(func() any {
		if fn, ok := currentStatus.Load().(func() map[string]any); ok {
			return fn()
		}
		return nil
	}))
}

func parseDirection(s string) (volley.Direction, error) {
	switch strings.ToLower(s) {
	case "", "above":
		return volley.Above, nil
	case "below":
		return volley.Below, nil
	default:
		return 0, fmt.Errorf("unknown direction %q (want above or below)", s)
	}
}

// buildAgent turns a source — the -source flag, or a monitor's source in an
// admission — into the agent that reads it. http(s) agents keep their
// connections in pool (httpagent.go).
func buildAgent(source string, pool *agentPool) (volley.Agent, error) {
	switch {
	case strings.HasPrefix(source, "cmd:"):
		cmdline := strings.TrimPrefix(source, "cmd:")
		if strings.TrimSpace(cmdline) == "" {
			return nil, fmt.Errorf("empty command in source %q", source)
		}
		return volley.AgentFunc(func() (float64, error) {
			ctx, cancel := context.WithTimeout(context.Background(), agentTimeout)
			defer cancel()
			cmd := exec.CommandContext(ctx, "sh", "-c", cmdline)
			killGroupOnCancel(cmd)
			// Whatever survives that and holds the output pipe open is given
			// this long, then abandoned.
			cmd.WaitDelay = time.Second
			out, err := cmd.Output()
			if ctx.Err() != nil {
				err = fmt.Errorf("gave up after %v", agentTimeout)
			}
			if err != nil {
				return 0, fmt.Errorf("run %q: %w", cmdline, err)
			}
			return parseNumber(out)
		}), nil
	case strings.HasPrefix(source, "workload:"):
		return buildWorkloadAgent(source)
	case strings.HasPrefix(source, "http://"), strings.HasPrefix(source, "https://"):
		return newHTTPAgent(source, pool)
	case source == "":
		return nil, fmt.Errorf("missing -source")
	default:
		return nil, fmt.Errorf("unknown source %q (want cmd:<command>, an http(s) URL or workload:<family>)", source)
	}
}

// parseNumber extracts the first whitespace-delimited float from b. It
// allocates only to report an error.
func parseNumber(b []byte) (float64, error) {
	b = bytes.TrimLeftFunc(b, unicode.IsSpace)
	if i := bytes.IndexFunc(b, unicode.IsSpace); i >= 0 {
		b = b[:i]
	}
	if len(b) == 0 {
		return 0, fmt.Errorf("source produced no output")
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return 0, fmt.Errorf("parse %q: %w", b, err)
	}
	return v, nil
}

// saveState atomically writes the sampler's snapshot as JSON.
func saveState(path string, s *volley.Sampler) error {
	data, err := json.MarshalIndent(s.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// restoreState loads a snapshot if the file exists; a missing file is a
// fresh start, not an error.
func restoreState(path string, s *volley.Sampler) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var st volley.SamplerState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("state file %s: %w", path, err)
	}
	if err := s.Restore(st); err != nil {
		return fmt.Errorf("state file %s: %w", path, err)
	}
	return nil
}
