package host

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"volley/internal/core"
	"volley/internal/correlation"
	"volley/internal/monitor"
)

// TestFanOutArmsEachDependentGateOnce: a predictor's local violation arms
// every gate of every dependent exactly once and wakes its monitor; the arm
// count a tick returns (what volleyd adds to volley_cluster_gate_arms_total)
// counts the relaxed→armed transitions, not the signals that merely extend a
// hold-down.
func TestFanOutArmsEachDependentGateOnce(t *testing.T) {
	const holdDown = 3
	var h Set
	gates := map[string][]*correlation.Gate{}
	level := map[string]*float64{}
	host := func(name, pred string, n int) {
		v := new(float64)
		level[name] = v
		mons := make([]*monitor.Monitor, n)
		var gs []*correlation.Gate
		for i := range mons {
			cfg := monitor.Config{
				ID: fmt.Sprintf("%s/m%d", name, i), Task: name,
				Agent:   monitor.AgentFunc(func() (float64, error) { return *v, nil }),
				Sampler: core.Config{Threshold: 10, Err: 0.01, MaxInterval: 1},
			}
			if pred != "" {
				g, err := correlation.NewGate(50, holdDown)
				if err != nil {
					t.Fatal(err)
				}
				gs = append(gs, g)
				cfg.Gate = g
			}
			m, err := monitor.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			mons[i] = m
		}
		gates[name] = gs
		h.Put(name, Task{Mons: mons, Gates: gs, Pred: pred})
	}
	host("free", "", 2) // ungated and nobody's predictor
	host("pred-a", "", 1)
	host("dep-a1", "pred-a", 3)
	host("pred-b", "", 2)
	host("dep-a2", "pred-a", 2)
	host("dep-b", "pred-b", 2)

	var p Plan
	p.Refresh(&h)
	step, gateArms := 0, 0
	tick := func() {
		arms, err := p.Tick(time.Duration(step) * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		step++
		gateArms += arms
	}
	armed := func(task string) (n int) {
		for _, g := range gates[task] {
			if g.Armed() {
				n++
			}
		}
		return n
	}
	samples := func(task string) (n uint64) {
		for _, m := range h.Task(task).Mons {
			n += m.Stats().Samples
		}
		return n
	}

	tick() // everyone samples once, then the gated stretch to 50 ticks
	tick()
	if got := gateArms; got != 0 {
		t.Fatalf("%d gates armed with every predictor quiet", got)
	}
	// An ungated non-predictor violating arms nothing.
	*level["free"] = 99
	tick()
	if got := gateArms; got != 0 {
		t.Fatalf("%d gates armed by a task nothing is gated on", got)
	}

	before := samples("dep-a1") + samples("dep-a2")
	*level["pred-a"] = 99
	tick()
	if got := gateArms; got != 5 {
		t.Errorf("gate arms = %d after pred-a's violation, want 5 (dep-a1's 3 + dep-a2's 2)", got)
	}
	for _, task := range []string{"dep-a1", "dep-a2"} {
		for i, g := range gates[task] {
			if g.Arms() != 1 {
				t.Errorf("%s gate %d armed %d times, want once", task, i, g.Arms())
			}
		}
	}
	if armed("dep-a1") != 3 || armed("dep-a2") != 2 || armed("dep-b") != 0 {
		t.Errorf("armed gates: dep-a1 %d, dep-a2 %d, dep-b %d; want 3, 2, 0", armed("dep-a1"), armed("dep-a2"), armed("dep-b"))
	}
	// Still violating: the signals extend the hold-down, no new arms, and
	// the woken monitors sample on the very next tick.
	tick()
	tick()
	if got := gateArms; got != 5 {
		t.Errorf("gate arms = %d while the hold-down is being extended, want 5 still", got)
	}
	if got := samples("dep-a1") + samples("dep-a2") - before; got != 10 {
		t.Errorf("pred-a's dependents sampled %d times over the two ticks after being woken, want 10", got)
	}
	if got := samples("dep-b"); got != 2 {
		t.Errorf("dep-b sampled %d times, want 2 (nobody woke it)", got)
	}

	// Quiet long enough for the hold-down to lapse, then a second
	// violation is a second set of transitions.
	*level["pred-a"] = 1
	for i := 0; i <= holdDown; i++ {
		tick()
	}
	if armed("dep-a1")+armed("dep-a2") != 0 {
		t.Fatalf("gates still armed %d ticks after the last signal", holdDown+1)
	}
	*level["pred-a"], *level["pred-b"] = 99, 99
	tick()
	if got := gateArms; got != 12 {
		t.Errorf("gate arms = %d after both predictors violated, want 12 (5 + 5 again + dep-b's 2)", got)
	}
}

// hostTask hosts one task of a single standalone monitor reading *v, gated
// on pred with a gate of the given relaxed interval and hold-down when pred
// is not "".
func hostTask(t *testing.T, s *Set, name string, v *float64, cfg core.Config, pred string, relaxed, holdDown int) *monitor.Monitor {
	t.Helper()
	mc := monitor.Config{
		ID: name, Task: name, Sampler: cfg,
		Agent: monitor.AgentFunc(func() (float64, error) { return *v, nil }),
	}
	var gates []*correlation.Gate
	if pred != "" {
		g, err := correlation.NewGate(relaxed, holdDown)
		if err != nil {
			t.Fatal(err)
		}
		gates, mc.Gate = []*correlation.Gate{g}, g
	}
	m, err := monitor.New(mc)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(name, Task{Mons: []*monitor.Monitor{m}, Gates: gates, Pred: pred})
	return m
}

// TestGatedTaskRelaxesUntilArmed: a standalone gated task samples at its
// relaxed interval while its predictor is quiet; the tick on which the
// predictor samples a violation arms the gate, and the woken monitor samples
// on the next tick — not on the same one, since the gates are armed after
// the walk — then densely while the gate holds.
func TestGatedTaskRelaxesUntilArmed(t *testing.T) {
	var s Set
	cheapV, costlyV := 1.0, 1.0
	cfg := core.Config{Threshold: 100, Err: 0.05, MaxInterval: 10, Patience: 5}
	cheap := hostTask(t, &s, "cheap", &cheapV, cfg, "", 0, 0)
	costly := hostTask(t, &s, "expensive", &costlyV, cfg, "cheap", 20, 10)
	var p Plan
	p.Sync(&s)
	now := time.Duration(0)
	tick := func() int {
		now += time.Second
		arms, err := p.Tick(now)
		if err != nil {
			t.Fatal(err)
		}
		return arms
	}

	for i := 0; i < 400; i++ {
		if arms := tick(); arms != 0 {
			t.Fatalf("tick %d armed %d gates with the predictor quiet", i, arms)
		}
	}
	quiet := costly.Stats().Samples
	if quiet > 400/20+4 {
		t.Errorf("gated task sampled %d times in 400 quiet ticks, want ≈ %d", quiet, 400/20)
	}

	cheapV, costlyV = 150, 150
	armedAt := -1
	for i := 0; i <= cfg.MaxInterval && armedAt < 0; i++ {
		if arms := tick(); arms > 0 {
			if arms != 1 {
				t.Fatalf("%d gates armed, want the one", arms)
			}
			armedAt = i
		}
	}
	if armedAt < 0 {
		t.Fatalf("the predictor never armed the gate (%d samples)", cheap.Stats().Samples)
	}
	woken := costly.Stats().Samples
	tick()
	if got := costly.Stats().Samples - woken; got != 1 {
		t.Errorf("the woken monitor sampled %d times on the tick after arming, want 1", got)
	}
	for i := 0; i < 9; i++ {
		tick()
	}
	if got := costly.Stats().Samples - woken; got < 5 {
		t.Errorf("the armed task sampled only %d times in 10 hot ticks", got)
	}
	if costly.Stats().LocalViolations == 0 {
		t.Error("the expensive task never observed its violation while armed")
	}
}

// TestSteadyStateTickAllocsNothing: a steady-state tick of a plan over gated and
// ungated tasks — monitors sampling and counting down, a predictor that
// violates every few ticks and so gates that arm, hold and lapse — allocates
// nothing.
func TestSteadyStateTickAllocsNothing(t *testing.T) {
	var s Set
	predV, quietV := 1.0, 1.0
	cfg := core.Config{Threshold: 100, Err: 0.05, MaxInterval: 4, Patience: 5}
	hostTask(t, &s, "pred", &predV, core.Config{Threshold: 100, Err: 0.01, MaxInterval: 1}, "", 0, 0)
	for i := 0; i < 8; i++ {
		pred := ""
		if i%2 == 0 {
			pred = "pred"
		}
		hostTask(t, &s, fmt.Sprintf("task-%d", i), &quietV, cfg, pred, 8, 3)
	}
	var p Plan
	p.Sync(&s)
	k, arms := 0, 0
	tick := func() {
		k++
		predV = 1
		if k%7 == 0 {
			predV = 150
		}
		n, err := p.Tick(time.Duration(k) * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		arms += n
	}
	for i := 0; i < 100; i++ {
		tick()
	}
	armsBefore := arms
	if allocs := testing.AllocsPerRun(300, func() { p.Sync(&s); tick() }); allocs != 0 {
		t.Errorf("a steady-state tick allocates %.2f times, want 0", allocs)
	}
	if arms == armsBefore {
		t.Error("no gate armed over the measured ticks")
	}
}

// TestGatedPlanEndToEndSavings runs the whole multi-task pipeline on
// synthetic correlated tasks — detect on a training prefix, build a plan,
// host both tasks with the plan's gate — and checks the expensive task's
// sampling drops while its violations are still seen.
func TestGatedPlanEndToEndSavings(t *testing.T) {
	const steps = 8000
	rng := rand.New(rand.NewSource(21))
	cheap := make([]float64, steps)
	costly := make([]float64, steps)
	ttl := 0
	for i := range cheap {
		if ttl == 0 && rng.Float64() < 0.002 {
			ttl = 50
		}
		cheap[i] = 10 + rng.NormFloat64()
		costly[i] = 20 + 2*rng.NormFloat64()
		if ttl > 0 {
			cheap[i] += 100
			costly[i] += 300
			ttl--
		}
	}

	d, err := correlation.NewDetector(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddSeries("cheap", cheap[:3000], 50); err != nil {
		t.Fatal(err)
	}
	if err := d.AddSeries("costly", costly[:3000], 150); err != nil {
		t.Fatal(err)
	}
	rules, err := d.Detect(0.8)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := correlation.BuildPlan(rules, map[string]float64{"cheap": 1, "costly": 40}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	rule, ok := plan.Gates["costly"]
	if !ok {
		t.Fatalf("costly not gated; rules %+v", rules)
	}

	var s Set
	cheapV, costlyV := 0.0, 0.0
	hostTask(t, &s, "cheap", &cheapV, core.Config{Threshold: 50, Err: 0.02, MaxInterval: 10, Patience: 5}, "", 0, 0)
	m := hostTask(t, &s, "costly", &costlyV, core.Config{Threshold: 150, Err: 0.02, MaxInterval: 10, Patience: 5}, rule.Predictor, 20, 30)
	var p Plan
	p.Sync(&s)
	for cursor := 3000; cursor < steps; cursor++ {
		cheapV, costlyV = cheap[cursor], costly[cursor]
		if _, err := p.Tick(time.Duration(cursor) * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	ratio := float64(st.Samples) / float64(st.Ticks)
	if ratio > 0.4 {
		t.Errorf("gated expensive task ratio %.3f, want deep savings", ratio)
	}
	if st.LocalViolations == 0 {
		t.Error("no costly violations observed despite episodes — gating missed everything")
	}
	t.Logf("costly ratio %.3f, violations seen %d", ratio, st.LocalViolations)
}
