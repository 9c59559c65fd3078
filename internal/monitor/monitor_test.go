package monitor

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"volley/internal/core"
	"volley/internal/obs"
	"volley/internal/transport"
)

func quietAgent() Agent {
	return AgentFunc(func() (float64, error) { return 1, nil })
}

func samplerCfg(threshold, errAllow float64) core.Config {
	return core.Config{Threshold: threshold, Err: errAllow, MaxInterval: 10}
}

func TestNewValidation(t *testing.T) {
	net := transport.NewMemory()
	tests := []struct {
		name string
		cfg  Config
	}{
		{name: "empty id", cfg: Config{Agent: quietAgent(), Sampler: samplerCfg(10, 0.1)}},
		{name: "nil agent", cfg: Config{ID: "m", Sampler: samplerCfg(10, 0.1)}},
		{name: "network without coordinator", cfg: Config{
			ID: "m", Agent: quietAgent(), Sampler: samplerCfg(10, 0.1), Network: net,
		}},
		{name: "negative yield period", cfg: Config{
			ID: "m", Agent: quietAgent(), Sampler: samplerCfg(10, 0.1), YieldEvery: -1,
		}},
		{name: "bad sampler", cfg: Config{
			ID: "m", Agent: quietAgent(), Sampler: core.Config{Threshold: 1, Err: 2, MaxInterval: 1},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.cfg); err == nil {
				t.Error("invalid config accepted, want error")
			}
		})
	}
}

func TestStandaloneSampling(t *testing.T) {
	calls := 0
	agent := AgentFunc(func() (float64, error) {
		calls++
		return 5, nil
	})
	m, err := New(Config{ID: "m1", Agent: agent, Sampler: samplerCfg(1000, 0.5)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, _, err := m.Tick(time.Duration(i) * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	stats := m.Stats()
	if stats.Ticks != 100 {
		t.Errorf("Ticks = %d, want 100", stats.Ticks)
	}
	if int(stats.Samples) != calls {
		t.Errorf("Samples = %d but agent called %d times", stats.Samples, calls)
	}
	// Quiet signal far below threshold: the interval must have grown, so
	// fewer than 100 samples.
	if stats.Samples >= 100 {
		t.Errorf("Samples = %d, want < 100 (interval growth)", stats.Samples)
	}
	if m.Interval() < 2 {
		t.Errorf("Interval() = %d, want ≥ 2", m.Interval())
	}
	if r := m.SamplingRatio(); r >= 1 || r <= 0 {
		t.Errorf("SamplingRatio() = %v, want in (0, 1)", r)
	}
}

func TestTickRespectsInterval(t *testing.T) {
	m, err := New(Config{ID: "m1", Agent: quietAgent(), Sampler: samplerCfg(1000, 0.5)})
	if err != nil {
		t.Fatal(err)
	}
	var pattern []bool
	for i := 0; i < 200; i++ {
		sampled, _, err := m.Tick(time.Duration(i) * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		pattern = append(pattern, sampled)
	}
	// Gaps between samples must match the interval in effect: count that
	// consecutive sampled ticks are never closer than 1 (trivially true)
	// and that at least one gap widened beyond 1 tick.
	last := -1
	sawGap := false
	for i, s := range pattern {
		if !s {
			continue
		}
		if last >= 0 && i-last > 1 {
			sawGap = true
		}
		last = i
	}
	if !sawGap {
		t.Error("no widened sampling gap observed on quiet signal")
	}
}

func TestAgentErrorRetriesNextTick(t *testing.T) {
	fail := true
	agent := AgentFunc(func() (float64, error) {
		if fail {
			return 0, errors.New("agent down")
		}
		return 5, nil
	})
	m, err := New(Config{ID: "m1", Agent: agent, Sampler: samplerCfg(1000, 0.5)})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Tick(0); err == nil {
		t.Error("Tick with failing agent returned nil error")
	}
	fail = false
	sampled, v, err := m.Tick(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !sampled || v != 5 {
		t.Errorf("retry tick: sampled=%v v=%v, want true, 5", sampled, v)
	}
	if m.Stats().AgentErrors != 1 {
		t.Errorf("AgentErrors = %d, want 1", m.Stats().AgentErrors)
	}
}

func TestLocalViolationReported(t *testing.T) {
	net := transport.NewMemory()
	var reports []transport.Message
	if err := net.Register("coord", func(msg transport.Message) {
		if msg.Kind == transport.KindLocalViolation {
			reports = append(reports, msg)
		}
	}); err != nil {
		t.Fatal(err)
	}
	agent := AgentFunc(func() (float64, error) { return 50, nil })
	m, err := New(Config{
		ID: "m1", Task: "t", Agent: agent,
		Sampler: samplerCfg(10, 0.1), Network: net, Coordinator: "coord",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Tick(7 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("got %d violation reports, want 1", len(reports))
	}
	r := reports[0]
	if r.Value != 50 || r.From != "m1" || r.Task != "t" || r.Time != 7*time.Second {
		t.Errorf("report = %+v", r)
	}
	if m.Stats().LocalViolations != 1 {
		t.Errorf("LocalViolations = %d, want 1", m.Stats().LocalViolations)
	}
}

func TestPollRequestSamplesAndResponds(t *testing.T) {
	net := transport.NewMemory()
	var responses []transport.Message
	if err := net.Register("coord", func(msg transport.Message) {
		if msg.Kind == transport.KindPollResponse {
			responses = append(responses, msg)
		}
	}); err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{
		ID: "m1", Task: "t", Agent: AgentFunc(func() (float64, error) { return 3.5, nil }),
		Sampler: samplerCfg(10, 0.1), Network: net, Coordinator: "coord",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Send("coord", "m1", transport.Message{
		Kind: transport.KindPollRequest, Task: "t", Time: 9 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	if len(responses) != 1 {
		t.Fatalf("got %d responses, want 1", len(responses))
	}
	if responses[0].Value != 3.5 || responses[0].Time != 9*time.Second {
		t.Errorf("response = %+v", responses[0])
	}
	if m.Stats().PollSamples != 1 {
		t.Errorf("PollSamples = %d, want 1", m.Stats().PollSamples)
	}
}

func TestPollWithFailingAgentUsesLastValue(t *testing.T) {
	net := transport.NewMemory()
	var responses []transport.Message
	if err := net.Register("coord", func(msg transport.Message) {
		if msg.Kind == transport.KindPollResponse {
			responses = append(responses, msg)
		}
	}); err != nil {
		t.Fatal(err)
	}
	fail := false
	m, err := New(Config{
		ID: "m1", Task: "t",
		Agent: AgentFunc(func() (float64, error) {
			if fail {
				return 0, errors.New("down")
			}
			return 8, nil
		}),
		Sampler: samplerCfg(100, 0.1), Network: net, Coordinator: "coord",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Tick(0); err != nil { // records lastValue = 8
		t.Fatal(err)
	}
	fail = true
	if err := net.Send("coord", "m1", transport.Message{Kind: transport.KindPollRequest}); err != nil {
		t.Fatal(err)
	}
	if len(responses) != 1 {
		t.Fatalf("got %d responses, want 1 (fallback to last value)", len(responses))
	}
	if responses[0].Value != 8 {
		t.Errorf("fallback value = %v, want 8", responses[0].Value)
	}
}

func TestPollWithNoHistoryAndFailingAgentStaysSilent(t *testing.T) {
	net := transport.NewMemory()
	responses := 0
	if err := net.Register("coord", func(msg transport.Message) {
		if msg.Kind == transport.KindPollResponse {
			responses++
		}
	}); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{
		ID: "m1", Task: "t",
		Agent:   AgentFunc(func() (float64, error) { return 0, errors.New("down") }),
		Sampler: samplerCfg(100, 0.1), Network: net, Coordinator: "coord",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Send("coord", "m1", transport.Message{Kind: transport.KindPollRequest}); err != nil {
		t.Fatal(err)
	}
	if responses != 0 {
		t.Errorf("got %d responses from a monitor with no data, want 0", responses)
	}
}

func TestErrAssignmentApplied(t *testing.T) {
	net := transport.NewMemory()
	if err := net.Register("coord", func(transport.Message) {}); err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{
		ID: "m1", Task: "t", Agent: quietAgent(),
		Sampler: samplerCfg(100, 0.1), Network: net, Coordinator: "coord",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Send("coord", "m1", transport.Message{
		Kind: transport.KindErrAssignment, Err: 0.03,
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.ErrAllowance(); got != 0.03 {
		t.Errorf("ErrAllowance() = %v, want 0.03", got)
	}
	// Invalid assignments are ignored.
	for _, bad := range []float64{-1, 2, math.NaN()} {
		if err := net.Send("coord", "m1", transport.Message{
			Kind: transport.KindErrAssignment, Err: bad,
		}); err != nil {
			t.Fatal(err)
		}
		if got := m.ErrAllowance(); got != 0.03 {
			t.Errorf("ErrAllowance() after invalid %v = %v, want unchanged 0.03", bad, got)
		}
	}
}

func TestYieldReportsSentPeriodically(t *testing.T) {
	net := transport.NewMemory()
	var yields []transport.Message
	if err := net.Register("coord", func(msg transport.Message) {
		if msg.Kind == transport.KindYieldReport {
			yields = append(yields, msg)
		}
	}); err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{
		ID: "m1", Task: "t", Agent: quietAgent(),
		Sampler: samplerCfg(1000, 0.5), Network: net, Coordinator: "coord",
		YieldEvery: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 35; i++ {
		if _, _, err := m.Tick(time.Duration(i) * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if len(yields) != 3 {
		t.Fatalf("got %d yield reports over 35 ticks with period 10, want 3", len(yields))
	}
	for _, y := range yields {
		if y.Reduction <= 0 || y.Reduction > 1 {
			t.Errorf("yield reduction = %v, want in (0, 1]", y.Reduction)
		}
		if y.Needed < 0 {
			t.Errorf("yield needed = %v, want ≥ 0", y.Needed)
		}
	}
}

func TestNoYieldReportWithoutSamples(t *testing.T) {
	net := transport.NewMemory()
	yields := 0
	if err := net.Register("coord", func(msg transport.Message) {
		if msg.Kind == transport.KindYieldReport {
			yields++
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Agent always fails → no samples → no yield data to report.
	m, err := New(Config{
		ID: "m1", Task: "t",
		Agent:   AgentFunc(func() (float64, error) { return 0, errors.New("down") }),
		Sampler: samplerCfg(100, 0.1), Network: net, Coordinator: "coord",
		YieldEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		m.Tick(time.Duration(i) * time.Second) //nolint:errcheck // failures expected
	}
	if yields != 0 {
		t.Errorf("got %d yield reports without any samples, want 0", yields)
	}
}

func TestSamplingRatioBeforeTicks(t *testing.T) {
	m, err := New(Config{ID: "m1", Agent: quietAgent(), Sampler: samplerCfg(10, 0.1)})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(m.SamplingRatio()) {
		t.Errorf("SamplingRatio() before ticks = %v, want NaN", m.SamplingRatio())
	}
}

func TestDuplicateRegistration(t *testing.T) {
	net := transport.NewMemory()
	if err := net.Register("coord", func(transport.Message) {}); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		ID: "dup", Agent: quietAgent(), Sampler: samplerCfg(10, 0.1),
		Network: net, Coordinator: "coord",
	}
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); err == nil {
		t.Error("duplicate monitor address accepted, want error")
	}
}

// splitAgent is a Prefetcher that records how it is driven: reads started
// early, reads completed, and reads Sample had to make whole.
type splitAgent struct {
	out                     bool // a read is started and not yet completed
	started, early, sampled int
}

func (a *splitAgent) Prefetch() {
	if !a.out {
		a.out = true
		a.started++
		a.early++
	}
}

func (a *splitAgent) Sample() (float64, error) {
	if !a.out {
		a.started++
	}
	a.out = false
	a.sampled++
	return 1, nil
}

// TestPrefetchStartsOnlyWhatTheNextTickReads: Monitor.Prefetch starts the
// agent's read exactly when the next Tick will sample, so a started read is
// always completed by that Tick (or by a poll before it), the sampling
// schedule is the one the monitor would have kept without it, and a monitor
// whose agent cannot prefetch is left alone.
func TestPrefetchStartsOnlyWhatTheNextTickReads(t *testing.T) {
	run := func(prefetch bool) (Stats, *splitAgent) {
		agent := &splitAgent{}
		m, err := New(Config{ID: "m", Task: "t", Agent: agent, Sampler: samplerCfg(100, 0.2)})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if prefetch {
				m.Prefetch()
				m.Prefetch() // the second finds the read started
			}
			wasOut := agent.out
			sampled, _, err := m.Tick(time.Duration(i) * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if wasOut != (prefetch && sampled) {
				t.Fatalf("tick %d: read started early = %v, sampled = %v", i, wasOut, sampled)
			}
			if agent.out {
				t.Fatalf("tick %d left a read started", i)
			}
			if i == 100 {
				// A wake between the look ahead and the tick: nothing is
				// started, and the tick reads whole.
				m.Wake()
			}
		}
		return m.Stats(), agent
	}
	plain, plainAgent := run(false)
	ahead, aheadAgent := run(true)
	if plain != ahead {
		t.Errorf("stats with prefetching %+v, without %+v", ahead, plain)
	}
	if plain.Samples == plain.Ticks || plain.Samples < 10 {
		t.Fatalf("%d samples in %d ticks: the schedule never stretched, or hardly sampled", plain.Samples, plain.Ticks)
	}
	if plainAgent.early != 0 || aheadAgent.early != aheadAgent.sampled || aheadAgent.started != aheadAgent.sampled {
		t.Errorf("reads started early/started/completed: %d/%d/%d with prefetching, %d/%d/%d without",
			aheadAgent.early, aheadAgent.started, aheadAgent.sampled, plainAgent.early, plainAgent.started, plainAgent.sampled)
	}

	m, err := New(Config{ID: "m", Task: "t", Agent: quietAgent(), Sampler: samplerCfg(100, 0.2)})
	if err != nil {
		t.Fatal(err)
	}
	m.Prefetch() // a plain agent: nothing to start, nothing to go wrong
}

// TestPrefetchedReadAnswersAPoll: a poll that arrives between Prefetch and
// Tick completes the started read — the value is as fresh as a poll's own
// would be — and the Tick then reads whole.
func TestPrefetchedReadAnswersAPoll(t *testing.T) {
	net := transport.NewMemory()
	var polled int
	if err := net.Register("coord", func(msg transport.Message) {
		if msg.Kind == transport.KindPollResponse {
			polled++
		}
	}); err != nil {
		t.Fatal(err)
	}
	agent := &splitAgent{}
	m, err := New(Config{ID: "m", Task: "t", Agent: agent, Sampler: samplerCfg(100, 0.2), Network: net, Coordinator: "coord"})
	if err != nil {
		t.Fatal(err)
	}
	m.Prefetch()
	if err := net.Send("coord", "m", transport.Message{Kind: transport.KindPollRequest, Task: "t"}); err != nil {
		t.Fatal(err)
	}
	if polled != 1 || agent.out || agent.started != 1 {
		t.Fatalf("after the poll: %d responses, read still started = %v, %d reads started", polled, agent.out, agent.started)
	}
	if sampled, _, err := m.Tick(0); err != nil || !sampled {
		t.Fatalf("Tick = (%v, _, %v)", sampled, err)
	}
	if agent.started != 2 || agent.early != 1 || agent.out {
		t.Errorf("%d reads started, %d early, one still started = %v; want 2, 1, false", agent.started, agent.early, agent.out)
	}
}

// TestCloseUndoesNew: Close frees the monitor's address and takes its one
// series out of the registry, and TaskMetrics.Remove the task's block, so the
// page is what it was before; a monitor built again under the same ID
// registers afresh and counts from zero; and a New the network refuses
// registers nothing — in particular it leaves the series of the live monitor
// that holds the address alone.
func TestCloseUndoesNew(t *testing.T) {
	net := transport.NewMemory()
	if err := net.Register("coord", func(transport.Message) {}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	reg.Counter("unrelated_total", "Somebody else's.").Inc()
	page := func() string {
		var b strings.Builder
		reg.WritePrometheus(&b)
		return b.String()
	}
	empty := page()
	cfg := Config{
		ID: "task/mon/m0", Task: "task", Agent: quietAgent(), Sampler: samplerCfg(1000, 0.1),
		Network: net, Coordinator: "coord", Metrics: reg, TaskMetrics: NewTaskMetrics(reg, "task", 1),
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := m.Tick(time.Duration(i) * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	observed := func() uint64 {
		return reg.Counter("volley_sampler_observations_total", "", "instance", cfg.ID).Value()
	}
	live := page()
	// One line of its own; the task's block is grows, resets, rejections and
	// the mean interval, a line each, and the bound histogram's thirteen.
	if observed() == 0 || strings.Count(live, `instance="task/mon/m0"`) != 1 || strings.Count(live, `task="task"`) != 4+13 {
		t.Fatalf("the monitor's series are not on the page:\n%s", live)
	}

	if _, err := New(cfg); err == nil {
		t.Fatal("a second monitor on a taken address was accepted")
	}
	if got := page(); got != live {
		t.Fatalf("a refused New changed the page:\n%s\nwant\n%s", got, live)
	}

	m.Close()
	if got := page(); strings.Contains(got, `instance="task/mon/m0"`) || strings.Count(got, `task="task"`) != 4+13 {
		t.Fatalf("page after Close, with the task's block still registered:\n%s", got)
	}
	cfg.TaskMetrics.Remove()
	if got := page(); got != empty {
		t.Fatalf("page after Close and the task's Remove:\n%s\nwant the page before New:\n%s", got, empty)
	}
	cfg.TaskMetrics = NewTaskMetrics(reg, "task", 1)
	again, err := New(cfg)
	if err != nil {
		t.Fatalf("the address was not freed: %v", err)
	}
	if got := observed(); got != 0 {
		t.Fatalf("the monitor built again starts at %d observations, want 0", got)
	}
	again.Close()
	cfg.TaskMetrics.Remove()
	if got := page(); got != empty {
		t.Fatalf("page after the second Close:\n%s\nwant the page before New:\n%s", got, empty)
	}

	// Without a registry or a network Close has nothing to undo.
	bare, err := New(Config{ID: "bare", Agent: quietAgent(), Sampler: samplerCfg(1000, 0.1)})
	if err != nil {
		t.Fatal(err)
	}
	bare.Close()
}

// TestTaskMetricsAreTheMonitorsSums: a task's shared series read what the
// per-monitor series they replace summed to — grows and resets are the
// samplers' own counts added up, the bound distribution counts every
// observation — and volley_sampler_interval{task} is the mean of the
// monitors' intervals, after intervals grow, after one resets, and after
// one is restored from another's snapshot. (A restore moves the interval and
// no counter: the per-monitor counters never moved on one either.)
func TestTaskMetricsAreTheMonitorsSums(t *testing.T) {
	reg := obs.NewRegistry()
	tm := NewTaskMetrics(reg, "t", 3)
	levels := make([]float64, 3)
	mons := make([]*Monitor, 3)
	for i := range mons {
		i := i
		m, err := New(Config{
			ID: fmt.Sprintf("t/m%d", i), Task: "t",
			Agent:   AgentFunc(func() (float64, error) { return levels[i], nil }),
			Sampler: samplerCfg(100, 0.1), Metrics: reg, TaskMetrics: tm,
		})
		if err != nil {
			t.Fatal(err)
		}
		mons[i] = m
	}
	now := time.Duration(0)
	tick := func(m *Monitor, n int) {
		for ; n > 0; n-- {
			now += time.Second
			if _, _, err := m.Tick(now); err != nil {
				t.Fatal(err)
			}
		}
	}
	var grows, resets uint64 // the samplers' own counts, summed before a restore rewrites them
	check := func(when string) {
		t.Helper()
		var observations uint64
		var intervals float64
		if when != "after a restore" {
			grows, resets = 0, 0
			for _, m := range mons {
				st := m.Snapshot().Sampler
				grows, resets = grows+st.Increases, resets+st.Resets
			}
		}
		for _, m := range mons {
			observations += reg.Counter(observationsName, "", "instance", m.ID()).Value()
			intervals += float64(m.Interval())
		}
		var page strings.Builder
		reg.WritePrometheus(&page)
		mean := -1.0
		for _, line := range strings.Split(page.String(), "\n") {
			if v, ok := strings.CutPrefix(line, `volley_sampler_interval{task="t"} `); ok {
				mean, _ = strconv.ParseFloat(v, 64)
			}
		}
		if tm.grows.Value() != grows || tm.resets.Value() != resets || tm.boundDist.Count() != observations {
			t.Errorf("%s: the task counts %d grows, %d resets, %d bounds; its monitors %d, %d, %d",
				when, tm.grows.Value(), tm.resets.Value(), tm.boundDist.Count(), grows, resets, observations)
		}
		if want := intervals / 3; mean != want {
			t.Errorf("%s: volley_sampler_interval{task=\"t\"} reads %v, the monitors' mean interval is %v", when, mean, want)
		}
	}
	check("at admission")
	tick(mons[0], 400)
	tick(mons[1], 150)
	tick(mons[2], 40)
	if mons[0].Interval() == mons[1].Interval() || mons[0].Interval() == 1 {
		t.Fatalf("intervals %d and %d: the quiet ticks grew nothing to tell apart", mons[0].Interval(), mons[1].Interval())
	}
	check("after grows")

	levels[0] = 99 // a step to just under the threshold: the bound jumps
	for i := 0; i < 20 && mons[0].Interval() != 1; i++ {
		tick(mons[0], 1)
	}
	if mons[0].Interval() != 1 {
		t.Fatal("a step to the threshold did not reset the interval")
	}
	check("after a reset")

	if mons[2].Interval() == mons[1].Interval() {
		t.Fatalf("monitors 1 and 2 are both at interval %d: a restore would move nothing", mons[1].Interval())
	}
	if err := mons[2].Restore(mons[1].Snapshot()); err != nil {
		t.Fatal(err)
	}
	check("after a restore")
}
