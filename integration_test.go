// Integration tests: full distributed monitoring scenarios driven through
// the public API — in-memory and TCP transports, failure injection, virtual
// time, and the accuracy/cost contract end to end.
package volley_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"volley"
	"volley/internal/bench"
	"volley/internal/timesim"
	"volley/internal/transport"
)

// transportDelay defers every delivery through the simulator's event queue.
func transportDelay(sim *timesim.Sim, d time.Duration) transport.MemoryOption {
	return transport.WithScheduler(d, func(delay time.Duration, f func()) error {
		_, err := sim.After(delay, func(time.Duration) { f() })
		return err
	})
}

// diurnalSeries builds a smooth signal with occasional spiky episodes.
func diurnalSeries(n int, period float64, spikes bool, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	level := 0.0
	spikeTTL := 0
	for i := range out {
		level = 0.97*level + rng.NormFloat64()
		out[i] = 50*(1+0.8*math.Sin(2*math.Pi*float64(i)/period)) + 2*level
		if spikes {
			if spikeTTL == 0 && rng.Float64() < 0.001 {
				spikeTTL = 20 + rng.Intn(30)
			}
			if spikeTTL > 0 {
				out[i] += 900
				spikeTTL--
			}
		}
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
}

// distributedHarness wires n monitors and a coordinator over a network and
// replays per-monitor series.
type distributedHarness struct {
	series     [][]float64
	thresholds []float64
	monitors   []*volley.Monitor
	coord      *volley.Coordinator
	cursor     int
	alerts     []time.Duration
}

func newDistributedHarness(t *testing.T, net volley.Network, series [][]float64, errAllow float64) *distributedHarness {
	t.Helper()
	n := len(series)
	h := &distributedHarness{series: series, cursor: -1}

	var globalThreshold float64
	ids := make([]string, n)
	h.thresholds = make([]float64, n)
	for i, s := range series {
		th, err := volley.ThresholdForSelectivity(s, 1)
		if err != nil {
			t.Fatal(err)
		}
		h.thresholds[i] = th
		globalThreshold += th
		ids[i] = fmt.Sprintf("mon-%d", i)
	}

	var err error
	h.coord, err = volley.NewCoordinator(volley.CoordinatorConfig{
		ID:           "coordinator",
		Task:         "integration",
		Threshold:    globalThreshold,
		Err:          errAllow,
		Monitors:     ids,
		Network:      net,
		UpdatePeriod: 500,
		OnAlert: func(now time.Duration, total float64) {
			h.alerts = append(h.alerts, now)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	h.monitors = make([]*volley.Monitor, n)
	for i := range series {
		i := i
		h.monitors[i], err = volley.NewMonitor(volley.MonitorConfig{
			ID:   ids[i],
			Task: "integration",
			Agent: volley.AgentFunc(func() (float64, error) {
				if h.cursor < 0 {
					return 0, errors.New("before first step")
				}
				return h.series[i][h.cursor], nil
			}),
			Sampler: volley.SamplerConfig{
				Threshold:   h.thresholds[i],
				Err:         errAllow / float64(n),
				MaxInterval: 10,
				Patience:    5,
			},
			Network:     net,
			Coordinator: "coordinator",
			YieldEvery:  500,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func (h *distributedHarness) run(t *testing.T, steps int) {
	t.Helper()
	for step := 0; step < steps; step++ {
		h.cursor = step
		now := time.Duration(step) * time.Second
		h.coord.Tick(now)
		for _, m := range h.monitors {
			if _, _, err := m.Tick(now); err != nil {
				t.Fatalf("monitor tick: %v", err)
			}
		}
	}
}

func (h *distributedHarness) samplingRatio(steps int) float64 {
	var samples uint64
	for _, m := range h.monitors {
		st := m.Stats()
		samples += st.Samples + st.PollSamples
	}
	return float64(samples) / float64(len(h.monitors)*steps)
}

func TestDistributedEndToEnd(t *testing.T) {
	const n, steps = 5, 8000
	series := make([][]float64, n)
	for i := range series {
		series[i] = diurnalSeries(steps, 2500, i == 2, int64(10+i))
	}
	h := newDistributedHarness(t, volley.NewMemoryNetwork(), series, 0.02)
	h.run(t, steps)

	ratio := h.samplingRatio(steps)
	if ratio >= 0.9 {
		t.Errorf("sampling ratio = %.3f, expected meaningful savings", ratio)
	}
	cs := h.coord.Stats()
	if cs.LocalViolations == 0 {
		t.Error("no local violations; the spiky series should cross its threshold")
	}
	if cs.PollsCompleted == 0 {
		t.Error("no completed polls")
	}
	t.Logf("ratio %.3f, local violations %d, polls %d, global alerts %d",
		ratio, cs.LocalViolations, cs.Polls, cs.GlobalAlerts)
}

func TestDistributedSurvivesMessageLoss(t *testing.T) {
	const n, steps = 4, 6000
	series := make([][]float64, n)
	for i := range series {
		series[i] = diurnalSeries(steps, 2000, i == 0, int64(20+i))
	}
	// 30% of all coordination messages silently dropped.
	net := volley.NewMemoryNetwork(volley.WithNetworkLoss(0.3, 99))
	h := newDistributedHarness(t, net, series, 0.02)
	h.run(t, steps)

	// The system must keep sampling and make progress despite loss: no
	// wedged polls, monitors still adapting.
	cs := h.coord.Stats()
	if cs.Polls > 0 && cs.PollsCompleted == 0 && cs.PollsExpired == 0 {
		t.Error("polls started but neither completed nor expired — wedged")
	}
	for i, m := range h.monitors {
		if m.Stats().Samples == 0 {
			t.Errorf("monitor %d stopped sampling under loss", i)
		}
	}
	if ratio := h.samplingRatio(steps); ratio >= 1 {
		t.Errorf("ratio %.3f — adaptation broke down under loss", ratio)
	}
	stats := net.Stats()
	if stats.Dropped == 0 {
		t.Fatal("loss injection did not drop anything")
	}
	t.Logf("dropped %d of %d messages; polls %d completed %d expired %d",
		stats.Dropped, stats.Sent, cs.Polls, cs.PollsCompleted, cs.PollsExpired)
}

func TestDistributedWithFlakyAgents(t *testing.T) {
	// One monitor's agent fails 20% of the time; the task must keep
	// working and the failing monitor must keep retrying.
	const steps = 3000
	series := [][]float64{
		diurnalSeries(steps, 1500, false, 30),
		diurnalSeries(steps, 1500, false, 31),
	}
	net := volley.NewMemoryNetwork()
	h := newDistributedHarness(t, net, series, 0.02)

	// Wrap monitor 0's agent with failures by replaying through a fresh
	// monitor (the harness already built them, so build a custom one).
	rng := rand.New(rand.NewSource(7))
	flaky, err := volley.NewMonitor(volley.MonitorConfig{
		ID:   "flaky",
		Task: "integration",
		Agent: volley.AgentFunc(func() (float64, error) {
			if rng.Float64() < 0.2 {
				return 0, errors.New("agent hiccup")
			}
			if h.cursor < 0 {
				return 0, errors.New("before first step")
			}
			return series[0][h.cursor], nil
		}),
		Sampler: volley.SamplerConfig{
			Threshold:   h.thresholds[0],
			Err:         0.01,
			MaxInterval: 10,
			Patience:    5,
		},
		Network:     net,
		Coordinator: "coordinator",
	})
	if err != nil {
		t.Fatal(err)
	}

	errorsSeen := 0
	for step := 0; step < steps; step++ {
		h.cursor = step
		now := time.Duration(step) * time.Second
		h.coord.Tick(now)
		if _, _, err := flaky.Tick(now); err != nil {
			errorsSeen++
		}
		for _, m := range h.monitors {
			if _, _, err := m.Tick(now); err != nil {
				t.Fatalf("monitor tick: %v", err)
			}
		}
	}
	st := flaky.Stats()
	if st.AgentErrors == 0 || errorsSeen == 0 {
		t.Fatal("failure injection did not fire")
	}
	if st.Samples == 0 {
		t.Error("flaky monitor never sampled successfully")
	}
	// Failed ticks retry at the next default interval, so total attempts
	// stay bounded by ticks.
	if st.Samples+st.AgentErrors > st.Ticks {
		t.Errorf("samples %d + errors %d exceed ticks %d", st.Samples, st.AgentErrors, st.Ticks)
	}
}

func TestDistributedDeterministic(t *testing.T) {
	build := func() (float64, uint64) {
		const n, steps = 3, 3000
		series := make([][]float64, n)
		for i := range series {
			series[i] = diurnalSeries(steps, 1000, i == 1, int64(40+i))
		}
		h := newDistributedHarness(t, volley.NewMemoryNetwork(), series, 0.02)
		h.run(t, steps)
		return h.samplingRatio(steps), h.coord.Stats().Polls
	}
	r1, p1 := build()
	r2, p2 := build()
	if r1 != r2 || p1 != p2 {
		t.Errorf("runs diverged: ratio %v vs %v, polls %d vs %d", r1, r2, p1, p2)
	}
}

// TestVirtualTimeMultiTask drives two tasks with different default
// intervals from one discrete-event clock, the way the datacenter
// simulation composes heterogeneous tasks.
func TestVirtualTimeMultiTask(t *testing.T) {
	sim := timesim.New()
	const steps = 4000

	fast := diurnalSeries(steps, 1300, false, 50) // 1-second task
	slow := diurnalSeries(steps, 1300, false, 51) // 15-second task

	mkSampler := func(series []float64) (*volley.Sampler, error) {
		th, err := volley.ThresholdForSelectivity(series, 1)
		if err != nil {
			return nil, err
		}
		return volley.NewSampler(volley.SamplerConfig{
			Threshold: th, Err: 0.02, MaxInterval: 10, Patience: 5,
		})
	}
	fastSampler, err := mkSampler(fast)
	if err != nil {
		t.Fatal(err)
	}
	slowSampler, err := mkSampler(slow)
	if err != nil {
		t.Fatal(err)
	}

	fastSamples, slowSamples := 0, 0
	fastIdx, fastNext := 0, 0
	if _, err := sim.Every(time.Second, func(time.Duration) {
		if fastIdx < steps {
			if fastIdx == fastNext {
				fastSamples++
				fastNext = fastIdx + fastSampler.Observe(fast[fastIdx])
			}
			fastIdx++
		}
	}); err != nil {
		t.Fatal(err)
	}
	slowIdx, slowNext := 0, 0
	if _, err := sim.Every(15*time.Second, func(time.Duration) {
		if slowIdx < steps {
			if slowIdx == slowNext {
				slowSamples++
				slowNext = slowIdx + slowSampler.Observe(slow[slowIdx])
			}
			slowIdx++
		}
	}); err != nil {
		t.Fatal(err)
	}

	sim.RunUntil(time.Duration(steps) * 15 * time.Second)
	if fastIdx != steps || slowIdx != steps {
		t.Fatalf("tasks did not finish: fast %d, slow %d", fastIdx, slowIdx)
	}
	if fastSamples >= steps || slowSamples >= steps {
		t.Errorf("no savings: fast %d, slow %d of %d", fastSamples, slowSamples, steps)
	}
	if sim.Now() != time.Duration(steps)*15*time.Second {
		t.Errorf("virtual clock at %v", sim.Now())
	}
}

// TestTCPEndToEnd runs a short full-stack scenario over real sockets.
func TestTCPEndToEnd(t *testing.T) {
	type host struct {
		mu      sync.Mutex
		handler volley.MessageHandler
		node    *volley.TCPNode
	}
	newHost := func() (*host, error) {
		h := &host{}
		node, err := volley.ListenTCP("127.0.0.1:0", func(msg volley.Message) {
			h.mu.Lock()
			handler := h.handler
			h.mu.Unlock()
			if handler != nil {
				handler(msg)
			}
		})
		if err != nil {
			return nil, err
		}
		h.node = node
		return h, nil
	}
	register := func(h *host) func(string, volley.MessageHandler) error {
		return func(_ string, handler volley.MessageHandler) error {
			h.mu.Lock()
			defer h.mu.Unlock()
			h.handler = handler
			return nil
		}
	}

	coordHost, err := newHost()
	if err != nil {
		t.Fatal(err)
	}
	defer coordHost.node.Close()
	monHost, err := newHost()
	if err != nil {
		t.Fatal(err)
	}
	defer monHost.node.Close()

	coordNet := &funcNetwork{register: register(coordHost), send: coordHost.node.Send}
	monNet := &funcNetwork{register: register(monHost), send: monHost.node.Send}

	alertCh := make(chan float64, 16)
	coordinator, err := volley.NewCoordinator(volley.CoordinatorConfig{
		ID:        coordHost.node.Addr(),
		Task:      "tcp-int",
		Threshold: 100,
		Err:       0.05,
		Monitors:  []string{monHost.node.Addr()},
		Network:   coordNet,
		OnAlert: func(_ time.Duration, total float64) {
			select {
			case alertCh <- total:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// step is written by the tick loop and read by the agent from the TCP
	// receive goroutine (poll requests sample re-entrantly).
	var step atomic.Int64
	mon, err := volley.NewMonitor(volley.MonitorConfig{
		ID:   monHost.node.Addr(),
		Task: "tcp-int",
		Agent: volley.AgentFunc(func() (float64, error) {
			if step.Load() > 50 {
				return 150, nil // violation
			}
			return 10, nil
		}),
		Sampler: volley.SamplerConfig{
			Threshold: 100, Err: 0.05, MaxInterval: 5, Patience: 3,
		},
		Network:     monNet,
		Coordinator: coordHost.node.Addr(),
	})
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.After(10 * time.Second)
	for i := 0; i < 200; i++ {
		step.Store(int64(i))
		now := time.Duration(i) * time.Second
		coordinator.Tick(now)
		if _, _, err := mon.Tick(now); err != nil {
			t.Fatal(err)
		}
		select {
		case total := <-alertCh:
			if total != 150 {
				t.Errorf("alert total = %v, want 150", total)
			}
			return // success: alert confirmed over TCP
		case <-deadline:
			t.Fatal("timed out waiting for alert over TCP")
		default:
		}
		time.Sleep(time.Millisecond) // let socket deliveries land
	}
	// Give in-flight deliveries a final chance.
	select {
	case <-alertCh:
	case <-time.After(5 * time.Second):
		t.Fatal("no global alert over TCP")
	}
}

// funcNetwork adapts closures to the Network interface.
type funcNetwork struct {
	register func(string, volley.MessageHandler) error
	send     func(string, string, volley.Message) error
}

func (n *funcNetwork) Register(addr string, h volley.MessageHandler) error {
	return n.register(addr, h)
}
func (n *funcNetwork) Send(from, to string, msg volley.Message) error {
	return n.send(from, to, msg)
}

// TestAllowanceConservationUnderRebalancing checks the coordinator-level
// invariant Σ err_i ≤ err across a long adaptive run.
func TestAllowanceConservationUnderRebalancing(t *testing.T) {
	const n, steps = 6, 8000
	series := make([][]float64, n)
	for i := range series {
		series[i] = diurnalSeries(steps, 2000, i%2 == 0, int64(60+i))
	}
	h := newDistributedHarness(t, volley.NewMemoryNetwork(), series, 0.03)
	for step := 0; step < steps; step++ {
		h.cursor = step
		now := time.Duration(step) * time.Second
		h.coord.Tick(now)
		for _, m := range h.monitors {
			if _, _, err := m.Tick(now); err != nil {
				t.Fatal(err)
			}
		}
		if step%500 == 0 {
			var sum float64
			for _, e := range h.coord.Assignments() {
				sum += e
			}
			if sum > 0.03+1e-9 {
				t.Fatalf("step %d: assignments sum %v exceeds task allowance", step, sum)
			}
		}
	}
}

// TestPublicAPISurface exercises the facade helpers end to end.
func TestPublicAPISurface(t *testing.T) {
	values := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	th, err := volley.ThresholdForSelectivity(values, 10)
	if err != nil {
		t.Fatal(err)
	}
	if th < 9 || th > 10 {
		t.Errorf("threshold = %v, want ≈ 9.x", th)
	}
	locals, err := volley.SplitThresholdEven(100, 4)
	if err != nil || len(locals) != 4 || locals[0] != 25 {
		t.Errorf("SplitThresholdEven = %v, %v", locals, err)
	}
	weighted, err := volley.SplitThresholdWeighted(100, []float64{1, 3})
	if err != nil || weighted[1] != 75 {
		t.Errorf("SplitThresholdWeighted = %v, %v", weighted, err)
	}
	box := volley.Summarize(values)
	if box.Med != 5.5 || box.N != 10 {
		t.Errorf("Summarize = %+v", box)
	}
	bound, err := volley.MisdetectBound(volley.ChebyshevEstimator{}, 5, 10, 0, 1, 2)
	if err != nil || bound <= 0 || bound > 1 {
		t.Errorf("MisdetectBound = %v, %v", bound, err)
	}
	spec := volley.TaskSpec{
		ID: "t", DefaultInterval: time.Second, MaxInterval: 10,
		Err: 0.01, Threshold: 5, Monitors: 2,
	}
	if err := spec.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestMetricsRegistryIntegration wires a live monitor into the one
// exposition, the Metrics registry: its own observation counter under its
// instance label, and its task's shared series — here the mean interval of
// a task of one — under the task label.
func TestMetricsRegistryIntegration(t *testing.T) {
	reg := volley.NewMetrics()
	m, err := volley.NewMonitor(volley.MonitorConfig{
		ID:          "exported",
		Task:        "exporting",
		Agent:       volley.AgentFunc(func() (float64, error) { return 1, nil }),
		Sampler:     volley.SamplerConfig{Threshold: 100, Err: 0.05, MaxInterval: 10},
		Metrics:     reg,
		TaskMetrics: volley.NewMonitorTaskMetrics(reg, "exporting", 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, _, err := m.Tick(time.Duration(i) * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	var page strings.Builder
	reg.WritePrometheus(&page)
	out := page.String()
	for _, want := range []string{
		fmt.Sprintf(`volley_sampler_observations_total{instance="exported"} %d`, m.Stats().Samples),
		fmt.Sprintf(`volley_sampler_interval{task="exporting"} %d`, m.Interval()),
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if m.Interval() == 1 {
		t.Error("50 quiet ticks grew no interval: the mean interval line proves nothing")
	}
}

// TestDistributedMonitorRestart snapshots one monitor mid-run, replaces it
// with a fresh instance restored from the snapshot, and verifies the task
// continues working with the restored monitor participating in polls.
func TestDistributedMonitorRestart(t *testing.T) {
	const steps = 5000
	series := [][]float64{
		diurnalSeries(steps, 1500, true, 70),
		diurnalSeries(steps, 1500, false, 71),
	}
	net := volley.NewMemoryNetwork()
	h := newDistributedHarness(t, net, series, 0.02)

	for step := 0; step < steps; step++ {
		h.cursor = step
		now := time.Duration(step) * time.Second
		h.coord.Tick(now)

		if step == steps/2 {
			// "Crash" monitor 1 and bring up a replacement from its
			// persisted snapshot. The replacement keeps the network
			// address by registering under a fresh one and re-pointing —
			// in-memory addresses are single-registration, so the restart
			// uses a new ID and the coordinator's poll to the old address
			// simply goes unanswered (covered by poll expiry).
			snapshot := h.monitors[1].Snapshot()
			i := 1
			restored, err := volley.NewMonitor(volley.MonitorConfig{
				ID:   "mon-1-restarted",
				Task: "integration",
				Agent: volley.AgentFunc(func() (float64, error) {
					return h.series[i][h.cursor], nil
				}),
				Sampler: volley.SamplerConfig{
					Threshold:   h.thresholds[1],
					Err:         0.01,
					MaxInterval: 10,
					Patience:    5,
				},
				Network:     net,
				Coordinator: "coordinator",
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.Restore(snapshot); err != nil {
				t.Fatal(err)
			}
			h.monitors[1] = restored
		}
		for _, m := range h.monitors {
			if _, _, err := m.Tick(now); err != nil {
				t.Fatalf("monitor tick: %v", err)
			}
		}
	}
	st := h.monitors[1].Stats()
	if st.Samples == 0 {
		t.Fatal("restored monitor never sampled")
	}
	// The restored monitor resumed with learned state: its sampling ratio
	// over the second half should show savings, not a full re-learn.
	ratio := float64(st.Samples) / float64(st.Ticks)
	if ratio >= 1 {
		t.Errorf("restored monitor ratio %.3f, want < 1", ratio)
	}
}

// TestDistributedOverDelayedNetwork defers every message by two virtual
// ticks using the discrete-event clock: polls must still complete (the
// expiry horizon tolerates the round trip).
func TestDistributedOverDelayedNetwork(t *testing.T) {
	sim := timesim.New()
	const steps = 4000
	series := [][]float64{
		diurnalSeries(steps, 1200, true, 80),
		diurnalSeries(steps, 1200, false, 81),
		diurnalSeries(steps, 1200, false, 82),
	}
	net := volley.NewMemoryNetwork(transportDelay(sim, 2*time.Second))
	h := newDistributedHarness(t, net, series, 0.02)

	step := 0
	if _, err := sim.Every(time.Second, func(now time.Duration) {
		if step >= steps {
			return
		}
		h.cursor = step
		h.coord.Tick(now)
		for _, m := range h.monitors {
			if _, _, err := m.Tick(now); err != nil {
				t.Errorf("monitor tick: %v", err)
			}
		}
		step++
	}); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(time.Duration(steps+10) * time.Second)

	cs := h.coord.Stats()
	if cs.Polls == 0 {
		t.Fatal("no polls under delay; spiky series should violate")
	}
	if cs.PollsCompleted == 0 {
		t.Errorf("no polls completed under 2-tick delay: %+v", cs)
	}
	t.Logf("delayed network: polls %d completed %d expired %d",
		cs.Polls, cs.PollsCompleted, cs.PollsExpired)
}

// TestDistributedSurvivesDuplication runs the full stack over an
// at-least-once network: every message may be delivered twice. The task
// must behave identically in spirit — no wedges, no runaway polls.
func TestDistributedSurvivesDuplication(t *testing.T) {
	const n, steps = 4, 5000
	series := make([][]float64, n)
	for i := range series {
		series[i] = diurnalSeries(steps, 1800, i == 0, int64(90+i))
	}
	net := volley.NewMemoryNetwork(volley.WithNetworkDuplication(0.5, 123))
	h := newDistributedHarness(t, net, series, 0.02)
	h.run(t, steps)

	cs := h.coord.Stats()
	if cs.Polls > 0 && cs.PollsCompleted == 0 && cs.PollsExpired == 0 {
		t.Error("polls wedged under duplication")
	}
	// Duplicated violation reports may start at most one extra poll each;
	// alerts must stay plausible (≤ local violations).
	if cs.GlobalAlerts > cs.LocalViolations {
		t.Errorf("alerts %d exceed local violations %d", cs.GlobalAlerts, cs.LocalViolations)
	}
	if ratio := h.samplingRatio(steps); ratio >= 1 {
		t.Errorf("ratio %.3f — adaptation broke under duplication", ratio)
	}
}

// TestPaperScale800VMs reproduces the paper's deployment shape: 20 servers
// × 40 VMs = 800 monitors, partitioned into one distributed task per 5
// servers ("a coordinator is created for every 5 physical servers"), all
// running over one in-memory network against the virtual datacenter.
func TestPaperScale800VMs(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping 800-VM scale test in short mode")
	}
	const (
		servers         = 20
		vmsPerServer    = 40
		serversPerCoord = 5
		windows         = 2000
	)
	w, err := bench.GenNetwork(servers, vmsPerServer, windows, 4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	vms := w.NumVMs()
	if vms != 800 {
		t.Fatalf("workload has %d VMs, want 800", vms)
	}

	net := volley.NewMemoryNetwork()
	cursor := -1
	vmsPerTask := serversPerCoord * vmsPerServer
	numTasks := servers / serversPerCoord

	deployments := make([]*volley.Deployment, 0, numTasks)
	for task := 0; task < numTasks; task++ {
		base := task * vmsPerTask
		agents := make([]volley.Agent, vmsPerTask)
		weights := make([]float64, vmsPerTask)
		var globalThreshold float64
		for i := 0; i < vmsPerTask; i++ {
			vm := base + i
			// Local violations must be rare events (attack-level): with
			// 200 monitors per coordinator, a global poll costs 199
			// samples, so everyday threshold crossings would swamp the
			// adaptive savings with poll traffic.
			th, err := volley.ThresholdForSelectivity(w.Rho[vm], 0.1)
			if err != nil {
				t.Fatal(err)
			}
			globalThreshold += th
			weights[i] = th
			agents[i] = volley.AgentFunc(func() (float64, error) {
				return w.Rho[vm][cursor], nil
			})
		}
		d, err := volley.NewDeployment(volley.DeploymentConfig{
			Spec: volley.TaskSpec{
				ID:              fmt.Sprintf("rack-%d", task),
				DefaultInterval: 15 * time.Second,
				MaxInterval:     10,
				// The mis-detection budget divides across monitors
				// (β_c ≤ Σ β_i), so a wide task needs a task-level
				// allowance proportional to its monitor count — 0.5/200
				// gives each monitor the 0.25% the paper's single-VM
				// sweeps show to be workable. (The paper's Fig. 5–7 tasks
				// are single-VM precisely because tight allowances on
				// 200-monitor tasks leave no room to adapt.)
				Err:       0.5,
				Threshold: globalThreshold,
				Monitors:  vmsPerTask,
			},
			Agents:  agents,
			Network: net,
			// Split the global threshold in proportion to each VM's own
			// tail level, so local violations stay the rare events the
			// poll protocol assumes (an even split would leave every
			// above-average VM permanently in local violation).
			SplitWeights: weights,
			UpdatePeriod: 500,
			Patience:     5,
		})
		if err != nil {
			t.Fatal(err)
		}
		deployments = append(deployments, d)
	}

	for step := 0; step < windows; step++ {
		cursor = step
		now := time.Duration(step) * 15 * time.Second
		for _, d := range deployments {
			if err := d.Tick(now); err != nil {
				t.Fatal(err)
			}
		}
	}

	var totalRatio float64
	for i, d := range deployments {
		cs0, _ := d.Stats()
		t.Logf("task %d: violations=%d polls=%d completed=%d expired=%d alerts=%d",
			i, cs0.LocalViolations, cs0.Polls, cs0.PollsCompleted, cs0.PollsExpired, cs0.GlobalAlerts)
		ratio := d.SamplingRatio()
		if math.IsNaN(ratio) || ratio <= 0 || ratio > 1.1 {
			t.Errorf("task %d ratio %v out of range", i, ratio)
		}
		totalRatio += ratio
		cs, ms := d.Stats()
		if len(ms) != vmsPerTask {
			t.Fatalf("task %d has %d monitors, want %d", i, len(ms), vmsPerTask)
		}
		if cs.Polls > 0 && cs.PollsCompleted == 0 && cs.PollsExpired == 0 {
			t.Errorf("task %d polls wedged", i)
		}
	}
	mean := totalRatio / float64(numTasks)
	if mean >= 0.95 {
		t.Errorf("mean sampling ratio %.3f at 800-VM scale, want savings", mean)
	}
	t.Logf("800 VMs across %d tasks: mean sampling ratio %.3f", numTasks, mean)
}
