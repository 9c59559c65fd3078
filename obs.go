package volley

import (
	"io"
	"time"

	"volley/internal/core"
	"volley/internal/obs"
)

// Metrics is a lock-cheap instrument registry: atomic counters and
// gauges, a streaming fixed-bucket histogram, and hand-rolled Prometheus
// text exposition. All instruments are nil-safe no-ops, so un-instrumented
// code paths pay a single nil check. It is the one exposition: monitors,
// coordinators, the alert registry and the transport register their series
// in it, and WritePrometheus renders the page.
type Metrics = obs.Registry

// NewMetrics returns an empty instrument registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// Counter is a monotonically increasing atomic counter.
type Counter = obs.Counter

// Gauge is an atomic float64 gauge.
type Gauge = obs.Gauge

// Histogram is a streaming fixed-bucket histogram with atomic buckets.
type Histogram = obs.Histogram

// Tracer is a bounded ring buffer of structured decision events with an
// optional JSONL sink; every adaptation decision Volley makes (interval
// growth and reset, allowance movement, liveness transitions, transport
// faults) is recorded as a typed TraceEvent.
type Tracer = obs.Tracer

// NewTracer returns a tracer whose ring holds the most recent capacity
// events.
func NewTracer(capacity int, opts ...TracerOption) *Tracer {
	return obs.NewTracer(capacity, opts...)
}

// TracerOption configures a Tracer.
type TracerOption = obs.TracerOption

// WithTraceJSONL streams every recorded event to w as one JSON object per
// line, in addition to the ring buffer.
func WithTraceJSONL(w io.Writer) TracerOption { return obs.WithJSONLSink(w) }

// WithTraceClock sets the clock used to stamp events recorded with a zero
// Time.
func WithTraceClock(now func() time.Duration) TracerOption { return obs.WithNowFunc(now) }

// TraceEvent is one recorded decision event.
type TraceEvent = obs.Event

// TraceEventType identifies the kind of decision a TraceEvent records.
type TraceEventType = obs.EventType

// Trace event types, covering every decision point in the stack: the
// monitor-level sampler (grow/reset with the mis-detection bound), the
// task level (violations, global alerts, allowance movement, liveness),
// and the transport (reconnects, queue pressure, drops).
const (
	TraceIntervalGrow     = obs.EventIntervalGrow
	TraceIntervalReset    = obs.EventIntervalReset
	TraceViolation        = obs.EventViolation
	TraceGlobalAlert      = obs.EventGlobalAlert
	TraceAllowanceShift   = obs.EventAllowanceShift
	TraceAllowanceReclaim = obs.EventAllowanceReclaim
	TraceAllowanceRestore = obs.EventAllowanceRestore
	TraceHeartbeatDeath   = obs.EventHeartbeatDeath
	TraceResurrection     = obs.EventResurrection
	TraceReconnect        = obs.EventReconnect
	TraceQueueFull        = obs.EventQueueFull
	TraceDropped          = obs.EventDropped
)

// Cluster-level trace event types: shard lifecycle on the placement ring
// and the dynamic task control plane (admission, eviction, retuning,
// handoff between shards).
const (
	TraceShardJoin   = obs.EventShardJoin
	TraceShardLeave  = obs.EventShardLeave
	TraceShardCrash  = obs.EventShardCrash
	TraceRingRebuild = obs.EventRingRebuild
	TraceTaskAdmit   = obs.EventTaskAdmit
	TraceTaskEvict   = obs.EventTaskEvict
	TraceTaskUpdate  = obs.EventTaskUpdate
	TraceTaskHandoff = obs.EventTaskHandoff
)

// Alert lifecycle trace event types: episode open, operator ack/resolve,
// TTL expiry, snapshot handoff between nodes, and cold-start loss.
const (
	TraceAlertOpen    = obs.EventAlertOpen
	TraceAlertAck     = obs.EventAlertAck
	TraceAlertResolve = obs.EventAlertResolve
	TraceAlertExpire  = obs.EventAlertExpire
	TraceAlertHandoff = obs.EventAlertHandoff
	TraceAlertsLost   = obs.EventAlertsLost
)

// RegisterBuildInfo registers volley_build_info (constant 1, with version
// and goversion labels) and volley_uptime_seconds on the registry.
func RegisterBuildInfo(r *Metrics, start time.Time) { obs.RegisterBuildInfo(r, start) }

// SamplerObs wires metrics instruments and a tracer into a Sampler; pass
// it to Sampler.Instrument. Unset fields are simply not updated.
type SamplerObs = core.SamplerObs

// DefBoundBuckets is the default histogram bucket layout for mis-detection
// bound observations (bounds live in [0, 1], log-ish spaced).
var DefBoundBuckets = obs.DefBoundBuckets
