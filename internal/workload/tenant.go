package workload

import (
	"fmt"
	"math"

	"volley/internal/task"
)

// TenantTier is one SLO class of the tenant-colocation family: the share
// of tenants drawn into it and the monitoring target they get.
type TenantTier struct {
	// Name labels the tier ("gold", "silver", "bronze").
	Name string
	// Share is the fraction of tenants assigned to this tier; shares must
	// sum to ~1.
	Share float64
	// Err is the tier's per-tenant error allowance (tighter for stricter
	// SLOs).
	Err float64
	// Selectivity derives each tenant's threshold from its own series: the
	// (100−k)-th percentile.
	Selectivity float64
	// Cost is the relative per-sample cost of a tenant task in the tier
	// (strict-SLO tenants are monitored with heavier probes).
	Cost float64
}

// TenantColo is the multi-tenant SLO colocation family: Tenants small
// tasks emit instantaneous-CPU-requirement series — a per-tenant baseline
// plus a periodic daily-pattern component, correlated per-group burst
// events (colocated tenants burst together: a noisy neighbor, a shared
// dependency), rarer tenant-private bursts, and noise. Each tenant draws a
// heterogeneous (T, err) target from its SLO tier.
//
// Assemble additionally emits one cheap aggregate series per group (the
// group's summed CPU requirement). Group bursts dominate tenant
// violations, so the aggregates are natural gating predictors for the
// expensive per-tenant tasks — the correlation-gated monitoring shape of
// the multi-task level.
//
// Group burst schedules are derived from (seed, group) alone, so
// GenSeries(i) is index-independent: called on its own it derives its
// group's schedule, and under Generate every member reads the one schedule
// derived for its group beforehand.
type TenantColo struct {
	// Tenants is the number of tenant series; Groups the number of
	// colocation groups (tenant i belongs to group i mod Groups); WindowsN
	// the series length.
	Tenants  int
	Groups   int
	WindowsN int
	// Tiers are the SLO classes tenants draw their targets from.
	Tiers []TenantTier
	// BurstEvery is the mean gap between a group's burst events in
	// windows; BurstLen the event length; BurstMag the event magnitude as
	// a multiple of a tenant's baseline.
	BurstEvery int
	BurstLen   int
	BurstMag   float64
	// SoloBurstEvery is the mean gap between a tenant's private bursts
	// (the violations no aggregate predicts — the recall residue). Zero
	// disables them.
	SoloBurstEvery int
	// AggSelectivity and AggErr parameterize the derived per-group
	// aggregate tasks.
	AggSelectivity float64
	AggErr         float64
	// Seed drives all randomness.
	Seed int64
}

// DefaultTenantTiers is the standard three-class SLO mix: 10% gold
// (tight err, expensive probes), 30% silver, 60% bronze.
func DefaultTenantTiers() []TenantTier {
	return []TenantTier{
		{Name: "gold", Share: 0.1, Err: 0.002, Selectivity: 1.5, Cost: 8},
		{Name: "silver", Share: 0.3, Err: 0.01, Selectivity: 2.5, Cost: 4},
		{Name: "bronze", Share: 0.6, Err: 0.04, Selectivity: 4, Cost: 2},
	}
}

// DefaultTenantColo returns the tuned tenant-colocation family.
func DefaultTenantColo(tenants, groups, windows int, seed int64) TenantColo {
	return TenantColo{
		Tenants:        tenants,
		Groups:         groups,
		WindowsN:       windows,
		Tiers:          DefaultTenantTiers(),
		BurstEvery:     120,
		BurstLen:       6,
		BurstMag:       2.5,
		SoloBurstEvery: 1500,
		AggSelectivity: 4,
		AggErr:         0.02,
		Seed:           seed,
	}
}

// Name implements Family.
func (f TenantColo) Name() string { return "tenant-colo" }

// Signal implements Family.
func (f TenantColo) Signal() string {
	return "per-tenant instantaneous CPU requirement; group bursts predict tenant SLO violations"
}

// Size implements Family.
func (f TenantColo) Size() int { return f.Tenants }

// Windows implements Family.
func (f TenantColo) Windows() int { return f.WindowsN }

// Validate reports whether the config generates: every series and Assemble
// fail with this error when it does not.
func (f TenantColo) Validate() error {
	switch {
	case f.Tenants < 1:
		return fmt.Errorf("workload tenant-colo: need ≥ 1 tenant, got %d", f.Tenants)
	case f.Groups < 1 || f.Groups > f.Tenants:
		return fmt.Errorf("workload tenant-colo: groups %d outside [1, %d]", f.Groups, f.Tenants)
	case f.WindowsN < 2:
		return fmt.Errorf("workload tenant-colo: need ≥ 2 windows, got %d", f.WindowsN)
	case len(f.Tiers) == 0:
		return fmt.Errorf("workload tenant-colo: no tiers")
	case f.BurstEvery < 1 || f.BurstLen < 1:
		return fmt.Errorf("workload tenant-colo: burst shape must be positive (every %d, len %d)", f.BurstEvery, f.BurstLen)
	case f.BurstMag <= 0 || math.IsNaN(f.BurstMag):
		return fmt.Errorf("workload tenant-colo: burst magnitude %v must be positive", f.BurstMag)
	case f.SoloBurstEvery < 0:
		return fmt.Errorf("workload tenant-colo: negative solo burst gap %d", f.SoloBurstEvery)
	case f.AggSelectivity <= 0 || f.AggSelectivity >= 100:
		return fmt.Errorf("workload tenant-colo: aggregate selectivity %v outside (0, 100)", f.AggSelectivity)
	case f.AggErr <= 0 || f.AggErr >= 1:
		return fmt.Errorf("workload tenant-colo: aggregate err %v outside (0, 1)", f.AggErr)
	}
	for _, t := range f.Tiers {
		if t.Name == "" || t.Share <= 0 || t.Err <= 0 || t.Err >= 1 ||
			t.Selectivity <= 0 || t.Selectivity >= 100 || t.Cost <= 0 {
			return fmt.Errorf("workload tenant-colo: invalid tier %+v", t)
		}
	}
	return nil
}

// Stream namespaces for the family's decorrelated RNG streams.
const (
	tenantStreamGroup  = 4 << 32
	tenantStreamTenant = 5 << 32
)

// groupEvents derives group g's burst timeline from (seed, g): the start
// window and shared magnitude factor of every event.
type groupEvent struct {
	start int
	mag   float64
}

func (f TenantColo) groupEvents(g int) []groupEvent {
	rng := newRNG(f.Seed, tenantStreamGroup+uint64(g))
	var events []groupEvent
	w := 0
	for {
		w += f.BurstEvery/2 + rng.Intn(f.BurstEvery)
		if w >= f.WindowsN {
			return events
		}
		events = append(events, groupEvent{start: w, mag: 0.7 + 0.6*rng.Float64()})
		w += f.BurstLen
	}
}

// GenSeries implements Family: tenant i's CPU-requirement series with its
// tier-drawn (T, err) target.
func (f TenantColo) GenSeries(i int) (Series, error) {
	return f.genSeries(i, nil, newScratch())
}

// tenantColoTimelines is a TenantColo with every group's burst timeline
// already derived: what Generate runs, so that a timeline is derived once
// and not once by each of the group's members.
type tenantColoTimelines struct {
	TenantColo
	events [][]groupEvent // by group; nil where the config is invalid
}

// withTimelines derives every group's timeline. The family it returns
// generates, index for index, the series f does.
func (f TenantColo) withTimelines() tenantColoTimelines {
	p := tenantColoTimelines{TenantColo: f}
	if f.Validate() == nil {
		p.events = make([][]groupEvent, f.Groups)
		for g := range p.events {
			p.events[g] = f.groupEvents(g)
		}
	}
	return p
}

// GenSeries implements Family with the group's timeline read, not derived.
func (f tenantColoTimelines) GenSeries(i int) (Series, error) {
	return f.genSeries(i, f.events, newScratch())
}

func (f tenantColoTimelines) generate(i int, sc *scratch) (Series, error) {
	return f.genSeries(i, f.events, sc)
}

// genSeries generates tenant i in sc, its group bursting on
// timelines[group], or on the timeline derived here when there are none.
func (f TenantColo) genSeries(i int, timelines [][]groupEvent, sc *scratch) (Series, error) {
	if err := f.Validate(); err != nil {
		return Series{}, err
	}
	if err := checkIndex(f.Name(), i, f.Tenants); err != nil {
		return Series{}, err
	}
	g := i % f.Groups
	var events []groupEvent
	if timelines != nil {
		events = timelines[g]
	} else {
		events = f.groupEvents(g)
	}
	rng := reseed(sc.rng, f.Seed, tenantStreamTenant+uint64(i))

	// Fixed draw order (tier, shape, schedules, responses, then noise) so
	// the stream is stable against value-loop details.
	tier := f.Tiers[len(f.Tiers)-1]
	u := rng.Float64()
	acc := 0.0
	for _, t := range f.Tiers {
		acc += t.Share
		if u < acc {
			tier = t
			break
		}
	}
	base := 5 + 10*rng.Float64()
	amp := base * (0.2 + 0.3*rng.Float64())
	period := float64(50 + rng.Intn(150))
	phase := rng.Float64() * period

	// Tenant-private burst schedule.
	solo := sc.solo[:0]
	if f.SoloBurstEvery > 0 {
		w := 0
		for {
			w += f.SoloBurstEvery/2 + rng.Intn(f.SoloBurstEvery)
			if w >= f.WindowsN {
				break
			}
			solo = append(solo, w)
			w += f.BurstLen
		}
	}
	sc.solo = solo
	// Per-event participation: how strongly this tenant rides each of its
	// group's bursts.
	respond := resized(sc.respond, len(events))
	sc.respond = respond
	for e := range respond {
		respond[e] = 0.6 + 0.8*rng.Float64()
	}

	values := make([]float64, f.WindowsN)
	for w := range values {
		v := base + amp*math.Sin(2*math.Pi*(float64(w)+phase)/period)
		v += base * 0.05 * rng.NormFloat64()
		if v < 0 {
			v = 0
		}
		values[w] = v
	}
	for e, ev := range events {
		for j := 0; j < f.BurstLen && ev.start+j < f.WindowsN; j++ {
			values[ev.start+j] += f.BurstMag * base * ev.mag * respond[e]
		}
	}
	for _, s := range solo {
		for j := 0; j < f.BurstLen && s+j < f.WindowsN; j++ {
			values[s+j] += f.BurstMag * base * 1.2
		}
	}

	threshold, err := sc.threshold(values, tier.Selectivity)
	if err != nil {
		return Series{}, fmt.Errorf("workload tenant-colo: tenant %d: %w", i, err)
	}
	return Series{
		ID:        fmt.Sprintf("tenant-%04d", i),
		Group:     fmt.Sprintf("grp-%02d", g),
		Tier:      tier.Name,
		Values:    values,
		Threshold: threshold,
		Err:       tier.Err,
		Cost:      tier.Cost,
	}, nil
}

// Members are group g's tenants, in index order: g, g+Groups, g+2·Groups, …
// None where the config has no groups.
func (f TenantColo) Members(g int) []int {
	if f.Groups < 1 || g < 0 {
		return nil
	}
	var out []int
	for i := g; i < f.Tenants; i += f.Groups {
		out = append(out, i)
	}
	return out
}

// GroupSum is group g's aggregate series: its members' values, values(i)
// being tenant i's, added window by window in index order. Assemble derives
// every aggregate with it, so a sum over the same members is the aggregate
// bit for bit.
func (f TenantColo) GroupSum(g int, values func(i int) []float64) []float64 {
	sum := make([]float64, f.WindowsN)
	for _, i := range f.Members(g) {
		for w, v := range values(i) {
			sum[w] += v
		}
	}
	return sum
}

// Assemble implements Family: per-group aggregate series (summed CPU) are
// derived as cheap predictor tasks. The tenant family defines no single
// global task — the per-tenant SLOs are the monitoring objective — so
// Global stays nil; GlobalThreshold/GlobalErr still summarize the fleet
// for reporting.
func (f TenantColo) Assemble(series []Series) (*Set, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if len(series) != f.Tenants {
		return nil, fmt.Errorf("workload tenant-colo: assemble got %d series, want %d", len(series), f.Tenants)
	}
	set := &Set{
		Family:    f.Name(),
		Signal:    f.Signal(),
		Series:    series,
		GlobalErr: f.AggErr,
	}
	for _, s := range series {
		if len(s.Values) != f.WindowsN {
			return nil, fmt.Errorf("workload tenant-colo: series %s has %d windows, want %d", s.ID, len(s.Values), f.WindowsN)
		}
		set.GlobalThreshold += s.Threshold
	}
	set.Aggregates = make([]Series, f.Groups)
	for g := range set.Aggregates {
		sum := f.GroupSum(g, func(i int) []float64 { return series[i].Values })
		threshold, err := task.ThresholdForSelectivity(sum, f.AggSelectivity)
		if err != nil {
			return nil, fmt.Errorf("workload tenant-colo: group %d: %w", g, err)
		}
		set.Aggregates[g] = Series{
			ID:        fmt.Sprintf("agg-grp-%02d", g),
			Group:     fmt.Sprintf("grp-%02d", g),
			Values:    sum,
			Threshold: threshold,
			Err:       f.AggErr,
			Cost:      1,
		}
	}
	return set, nil
}
