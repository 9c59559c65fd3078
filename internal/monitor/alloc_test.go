package monitor

import (
	"testing"
	"time"

	"volley/internal/core"
	"volley/internal/transport"
)

// fixedGate holds the effective interval at a constant, so a monitor behind
// it spends all but one tick in n counting down.
type fixedGate int

func (fixedGate) Tick()              {}
func (g fixedGate) Interval(int) int { return int(g) }

// TestMonitorTickZeroAlloc guards every shape a tick takes in a running
// daemon: whichever of the (at most three) messages leave it, they are built
// on the stack and delivered through Memory's direct path.
func TestMonitorTickZeroAlloc(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		// Every measured tick delivers perTick messages, all of this kind
		// when one is named; a countdown tick does not sample.
		kind      transport.Kind
		perTick   int
		countdown bool
	}{
		{name: "sampling",
			cfg: Config{Sampler: core.Config{Threshold: 1000, Err: 0.01, MaxInterval: 1}}},
		{name: "countdown", countdown: true,
			cfg: Config{Sampler: core.Config{Threshold: 1000, Err: 0.01, MaxInterval: 1}, Gate: fixedGate(1 << 30)}},
		{name: "heartbeat", kind: transport.KindHeartbeat, perTick: 1,
			cfg: Config{Sampler: core.Config{Threshold: 1000, Err: 0.01, MaxInterval: 1}, HeartbeatEvery: 1}},
		{name: "yield report", kind: transport.KindYieldReport, perTick: 1,
			cfg: Config{Sampler: core.Config{Threshold: 1000, Err: 0.01, MaxInterval: 1}, YieldEvery: 1}},
		{name: "local violation", kind: transport.KindLocalViolation, perTick: 1,
			cfg: Config{Sampler: core.Config{Threshold: 0.5, Err: 0.01, MaxInterval: 1}}},
		{name: "all three", perTick: 3,
			cfg: Config{Sampler: core.Config{Threshold: 0.5, Err: 0.01, MaxInterval: 1}, HeartbeatEvery: 1, YieldEvery: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := transport.NewMemory()
			received, ofKind := 0, 0
			if err := net.Register("coord", func(msg transport.Message) {
				received++
				if msg.Kind == tc.kind {
					ofKind++
				}
			}); err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			cfg.ID, cfg.Task, cfg.Agent = "m1", "t", quietAgent()
			cfg.Network, cfg.Coordinator = net, "coord"
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			now := time.Duration(0)
			tick := func() {
				now += time.Second
				sampled, _, err := m.Tick(now)
				if err != nil || sampled == tc.countdown {
					t.Fatalf("Tick = (%v, _, %v), want sampled=%v", sampled, err, !tc.countdown)
				}
			}
			if tc.countdown {
				// The first tick samples and starts the countdown.
				now += time.Second
				if sampled, _, err := m.Tick(now); err != nil || !sampled {
					t.Fatalf("first Tick = (%v, _, %v), want a sample", sampled, err)
				}
			}
			for i := 0; i < 50; i++ {
				tick()
			}
			received, ofKind = 0, 0
			const runs = 500
			allocs := testing.AllocsPerRun(runs, tick)
			if allocs != 0 {
				t.Errorf("Monitor.Tick allocates %.1f times per tick, want 0", allocs)
			}
			// AllocsPerRun calls tick once more to warm up.
			if want := tc.perTick * (runs + 1); received != want {
				t.Errorf("coordinator received %d messages, want %d", received, want)
			}
			if tc.kind != 0 && ofKind != received {
				t.Errorf("%d of %d messages were %v", ofKind, received, tc.kind)
			}
		})
	}
}

// TestMonitorPrefetchZeroAlloc: looking ahead costs a monitor a lock and a
// comparison, whether it starts a read, finds it is not due, or has an agent
// that cannot start one.
func TestMonitorPrefetchZeroAlloc(t *testing.T) {
	for name, cfg := range map[string]Config{
		"due":       {Agent: &splitAgent{}, Sampler: core.Config{Threshold: 1000, Err: 0.01, MaxInterval: 1}},
		"countdown": {Agent: &splitAgent{}, Sampler: core.Config{Threshold: 1000, Err: 0.01, MaxInterval: 1}, Gate: fixedGate(1 << 30)},
		"plain":     {Agent: quietAgent(), Sampler: core.Config{Threshold: 1000, Err: 0.01, MaxInterval: 1}},
	} {
		t.Run(name, func(t *testing.T) {
			cfg.ID, cfg.Task = "m1", "t"
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			now := time.Duration(0)
			step := func() {
				now += time.Second
				m.Prefetch()
				if _, _, err := m.Tick(now); err != nil {
					t.Fatal(err)
				}
			}
			step()
			if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
				t.Errorf("Prefetch and Tick allocate %.1f times, want 0", allocs)
			}
			if a, ok := cfg.Agent.(*splitAgent); ok && (a.early != a.sampled || a.out) {
				t.Errorf("%d reads started early, %d sampled, one left started = %v", a.early, a.sampled, a.out)
			}
		})
	}
}
