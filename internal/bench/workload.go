package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"volley/internal/core"
	"volley/internal/correlation"
	"volley/internal/host"
	"volley/internal/monitor"
	"volley/internal/task"
	"volley/internal/workload"
)

// WorkloadPoint is one cell of a savings-vs-misdetection curve.
type WorkloadPoint struct {
	// Label names the cell ("err=0.016", "I=4"); Param is the numeric axis
	// value behind it (the global allowance, allowance scale, or uniform
	// interval).
	Label string
	Param float64
	// Ratio is samples over (monitors · windows); 1 − Ratio is the saving.
	Ratio float64
	// Misdetect is missed alerts over ground-truth alerts at
	// default-interval granularity (global-estimate alerts for the entropy
	// family, pooled per-tenant alerts for the tenant family).
	Misdetect float64
	// EpisodeDetect is the fraction of ground-truth episodes detected
	// (injected attack epochs for entropy, mean per-tenant violation
	// episodes for tenants); NaN when the family has none.
	EpisodeDetect float64
}

// WorkloadGating reports the correlation-gated run of the tenant family:
// cheap per-group aggregate tasks gate the expensive per-tenant ones.
type WorkloadGating struct {
	// MinRecall is the plan bound; Rules how many aggregate→tenant rules
	// cleared it; GatedTasks how many tenants the plan gates.
	MinRecall  float64
	Rules      int
	GatedTasks int
	// RelaxedInterval and HoldDown parameterize the runtime gates.
	RelaxedInterval int
	HoldDown        int
	// UngatedCost and GatedCost are the weighted sampling costs of the two
	// evaluation runs; Savings is 1 − gated/ungated.
	UngatedCost float64
	GatedCost   float64
	Savings     float64
	// Recall is the pooled episode recall of the gated tenants in the
	// gated run (fraction of ground-truth violation episodes with at least
	// one detected violation); UngatedRecall the same tenants' recall when
	// always-on, for reference.
	Recall        float64
	UngatedRecall float64
}

// WorkloadResult is one family's end-to-end evaluation: the Volley curve,
// the uniform-interval baseline curve, and the per-point sampling
// advantage at equal misdetection.
type WorkloadResult struct {
	Family   string
	Signal   string
	Monitors int
	Windows  int
	// Volley is the adaptive-sampling curve over the family's allowance
	// axis; Baseline the uniform-interval curve.
	Volley   []WorkloadPoint
	Baseline []WorkloadPoint
	// Advantage[i] is the extra sampling ratio the baseline needs to match
	// Volley[i]'s misdetection (baseline ratio interpolated at equal
	// misdetection, minus Volley's ratio). Positive = Volley wins.
	Advantage []float64
	// VolleyBeatsBaseline reports whether every Volley point dominates the
	// baseline at equal misdetection.
	VolleyBeatsBaseline bool
	// Gating is the correlation-gated run (tenant family only).
	Gating *WorkloadGating
}

// entropyFamily and tenantFamily derive the preset's workload configs.
func (p Preset) entropyFamily() workload.EntropyFlow {
	return workload.DefaultEntropyFlow(p.WloadEntropyNodes, p.WloadEntropyWindows, p.Seed+9000)
}

func (p Preset) tenantFamily() workload.TenantColo {
	return workload.DefaultTenantColo(p.WloadTenants, p.WloadTenantGroups, p.WloadTenantWindows, p.Seed+9100)
}

// RunWorkloadEntropy evaluates the entropy-of-flow family end to end: the
// global signal is reconstructed from each monitor's last-sampled value
// (sample-and-hold, what a coordinator aggregating asynchronous reports
// sees), and misdetection is judged against the full-resolution global
// signal. Volley's allowance sweep is compared against uniform sampling at
// every interval of the baseline axis.
func RunWorkloadEntropy(p Preset) (*WorkloadResult, error) {
	if err := p.validateWorkload(); err != nil {
		return nil, err
	}
	eng := p.engine()
	set, err := workload.Generate(p.entropyFamily())
	if err != nil {
		return nil, err
	}
	r := &WorkloadResult{
		Family:   set.Family,
		Signal:   set.Signal,
		Monitors: len(set.Series),
		Windows:  len(set.Global),
	}

	// Cap Im at the epoch length: an interval longer than the shortest
	// episode the task must catch can skip an attack entirely, and no
	// allowance can buy that back.
	maxInterval := p.MaxInterval
	if al := p.entropyFamily().AttackLen; al >= 1 && al < maxInterval {
		maxInterval = al
	}
	r.Volley = make([]WorkloadPoint, len(p.WloadErrs))
	err = eng.ForEach(len(p.WloadErrs), func(i int) error {
		pt, err := entropyVolleyPoint(p, set, p.WloadErrs[i], maxInterval)
		if err != nil {
			return err
		}
		r.Volley[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.Baseline = make([]WorkloadPoint, len(p.WloadIntervals))
	err = eng.ForEach(len(p.WloadIntervals), func(i int) error {
		r.Baseline[i] = entropyBaselinePoint(set, p.WloadIntervals[i])
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.Advantage, r.VolleyBeatsBaseline = advantageAtEqualMisdetect(r.Volley, r.Baseline)
	return r, nil
}

// entropyVolleyPoint replays every node adaptively at one per-node
// allowance: misdetection is the paper's window-level metric pooled over
// nodes (a locally violating window counts as missed unless that node
// sampled it), and an attack epoch counts as detected when any node
// samples a locally violating window inside it.
func entropyVolleyPoint(p Preset, set *workload.Set, errNode float64, maxInterval int) (WorkloadPoint, error) {
	masks := make([][]bool, len(set.Series))
	for idx, s := range set.Series {
		masks[idx] = make([]bool, len(s.Values))
		_, err := replay(s.Values, ReplayConfig{
			Threshold:   s.Threshold,
			Err:         errNode,
			MaxInterval: maxInterval,
			Patience:    p.Patience,
		}, masks[idx])
		if err != nil {
			return WorkloadPoint{}, fmt.Errorf("bench: %s: %w", s.ID, err)
		}
	}
	pt := scoreEntropyPoint(set, func(idx, i int) bool { return masks[idx][i] })
	pt.Label = fmt.Sprintf("err=%g", errNode)
	pt.Param = errNode
	return pt, nil
}

// entropyBaselinePoint scores uniform sampling at the given interval with
// per-node staggered offsets (node i samples windows ≡ i mod interval),
// the budget-equivalent fixed schedule, under the same metrics.
func entropyBaselinePoint(set *workload.Set, interval int) WorkloadPoint {
	pt := scoreEntropyPoint(set, func(idx, i int) bool { return i%interval == idx%interval })
	pt.Label = fmt.Sprintf("I=%d", interval)
	pt.Param = float64(interval)
	return pt
}

// scoreEntropyPoint pools every node's window-level score under the given
// schedule (sampled(node, window)) and scores ground-truth epochs against
// the caught mask: windows where some node sampled a local violation.
func scoreEntropyPoint(set *workload.Set, sampled func(idx, i int) bool) WorkloadPoint {
	caught := make([]bool, len(set.Series[0].Values))
	scores := make([]task.Accuracy, len(set.Series))
	for idx, s := range set.Series {
		scores[idx] = scoreSchedule(s.Values, s.Threshold, func(i int) bool {
			hit := sampled(idx, i)
			if hit && s.Values[i] > s.Threshold {
				caught[i] = true
			}
			return hit
		})
	}
	pooled := pool(scores)
	pt := WorkloadPoint{Ratio: pooled.Ratio, Misdetect: pooled.Misdetect, EpisodeDetect: math.NaN()}
	if set.Truth != nil {
		episodes, detected := 0, 0
		in, hit := false, false
		for i, truth := range set.Truth {
			if truth {
				if !in {
					episodes++
					in, hit = true, false
				}
				if !hit && caught[i] {
					hit = true
					detected++
				}
			} else {
				in = false
			}
		}
		if episodes > 0 {
			pt.EpisodeDetect = float64(detected) / float64(episodes)
		}
	}
	return pt
}

// RunWorkloadTenant evaluates the multi-tenant SLO colocation family: the
// Volley curve sweeps a scale on every tenant's tier allowance and pools
// per-tenant accuracy; the baseline is uniform sampling; and the gating
// run trains an aggregate→tenant correlation plan on the first half of the
// trace and evaluates correlation-gated sampling on the second half.
func RunWorkloadTenant(p Preset) (*WorkloadResult, error) {
	if err := p.validateWorkload(); err != nil {
		return nil, err
	}
	eng := p.engine()
	set, err := workload.Generate(p.tenantFamily())
	if err != nil {
		return nil, err
	}
	r := &WorkloadResult{
		Family:   set.Family,
		Signal:   set.Signal,
		Monitors: len(set.Series),
		Windows:  p.WloadTenantWindows,
	}

	r.Volley = make([]WorkloadPoint, len(p.WloadErrScales))
	err = eng.ForEach(len(p.WloadErrScales), func(i int) error {
		pt, err := tenantVolleyPoint(p, set, p.WloadErrScales[i])
		if err != nil {
			return err
		}
		r.Volley[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.Baseline = make([]WorkloadPoint, len(p.WloadIntervals))
	err = eng.ForEach(len(p.WloadIntervals), func(i int) error {
		r.Baseline[i] = tenantBaselinePoint(set, p.WloadIntervals[i])
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.Advantage, r.VolleyBeatsBaseline = advantageAtEqualMisdetect(r.Volley, r.Baseline)

	r.Gating, err = runTenantGating(p, set)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// tenantVolleyPoint replays every tenant adaptively with its tier
// allowance scaled by scale and pools accuracy across tenants.
func tenantVolleyPoint(p Preset, set *workload.Set, scale float64) (WorkloadPoint, error) {
	scores := make([]task.Accuracy, len(set.Series))
	for idx, s := range set.Series {
		errV := s.Err * scale
		if errV >= 1 {
			errV = 0.999
		}
		acc, err := replay(s.Values, ReplayConfig{
			Threshold:   s.Threshold,
			Err:         errV,
			MaxInterval: p.MaxInterval,
			Patience:    p.Patience,
		}, nil)
		if err != nil {
			return WorkloadPoint{}, fmt.Errorf("bench: %s: %w", s.ID, err)
		}
		scores[idx] = acc
	}
	return tenantPoint(fmt.Sprintf("err×%g", scale), scale, pool(scores)), nil
}

// tenantBaselinePoint pools uniform sampling at the given interval across
// tenants (staggered offsets).
func tenantBaselinePoint(set *workload.Set, interval int) WorkloadPoint {
	scores := make([]task.Accuracy, len(set.Series))
	for idx, s := range set.Series {
		off := idx % interval
		scores[idx] = scoreSchedule(s.Values, s.Threshold, func(i int) bool { return i%interval == off })
	}
	return tenantPoint(fmt.Sprintf("I=%d", interval), float64(interval), pool(scores))
}

func tenantPoint(label string, param float64, r PooledResult) WorkloadPoint {
	return WorkloadPoint{Label: label, Param: param, Ratio: r.Ratio, Misdetect: r.Misdetect, EpisodeDetect: r.EpisodeDetect}
}

// advantageAtEqualMisdetect interpolates the baseline's sampling ratio at
// each Volley point's misdetection and reports the per-point ratio
// advantage (baseline − Volley; positive = Volley needs fewer samples for
// the same accuracy). The verdict requires every point to win.
func advantageAtEqualMisdetect(volley, baseline []WorkloadPoint) ([]float64, bool) {
	type bp struct{ mis, ratio float64 }
	pts := make([]bp, 0, len(baseline))
	for _, b := range baseline {
		mis := b.Misdetect
		if math.IsNaN(mis) {
			mis = 0
		}
		pts = append(pts, bp{mis, b.Ratio})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].mis < pts[j].mis })
	ratioAt := func(m float64) float64 {
		if len(pts) == 0 {
			return math.NaN()
		}
		if m <= pts[0].mis {
			return pts[0].ratio
		}
		for i := 1; i < len(pts); i++ {
			if m <= pts[i].mis {
				lo, hi := pts[i-1], pts[i]
				if hi.mis == lo.mis {
					return hi.ratio
				}
				f := (m - lo.mis) / (hi.mis - lo.mis)
				return lo.ratio + f*(hi.ratio-lo.ratio)
			}
		}
		return pts[len(pts)-1].ratio
	}
	adv := make([]float64, len(volley))
	wins := len(volley) > 0
	for i, v := range volley {
		mis := v.Misdetect
		if math.IsNaN(mis) {
			mis = 0
		}
		adv[i] = ratioAt(mis) - v.Ratio
		if !(adv[i] > 0) {
			wins = false
		}
	}
	return adv, wins
}

// runTenantGating trains an aggregate→tenant correlation plan on the first
// half of the trace (DetectPairs keeps the scan to the aggregate×tenant
// cross product) and evaluates correlation-gated sampling on the second
// half against an always-on control run over the same tasks.
func runTenantGating(p Preset, set *workload.Set) (*WorkloadGating, error) {
	half := p.WloadTenantWindows / 2
	if half < 2 {
		return nil, fmt.Errorf("bench: tenant trace too short to split (%d windows)", p.WloadTenantWindows)
	}
	det, err := correlation.NewDetector(2, 2)
	if err != nil {
		return nil, err
	}
	aggIDs := make([]string, 0, len(set.Aggregates))
	tenantIDs := make([]string, 0, len(set.Series))
	costs := make(map[string]float64, len(set.Aggregates)+len(set.Series))
	for i := range set.Aggregates {
		a := &set.Aggregates[i]
		if err := det.AddSeries(a.ID, a.Values[:half], a.Threshold); err != nil {
			return nil, err
		}
		aggIDs = append(aggIDs, a.ID)
		costs[a.ID] = a.Cost
	}
	for i := range set.Series {
		s := &set.Series[i]
		if err := det.AddSeries(s.ID, s.Values[:half], s.Threshold); err != nil {
			return nil, err
		}
		tenantIDs = append(tenantIDs, s.ID)
		costs[s.ID] = s.Cost
	}
	rules, err := det.DetectPairs(aggIDs, tenantIDs, p.WloadMinRecall)
	if err != nil {
		return nil, err
	}
	plan, err := correlation.BuildPlan(rules, costs, p.WloadMinRecall)
	if err != nil {
		return nil, err
	}
	watch := make(map[string]bool, len(plan.Gates))
	for target := range plan.Gates {
		watch[target] = true
	}

	g := &WorkloadGating{
		MinRecall:       p.WloadMinRecall,
		Rules:           len(rules),
		GatedTasks:      len(plan.Gates),
		RelaxedInterval: 2 * p.MaxInterval,
		HoldDown:        8,
	}
	g.GatedCost, g.Recall, err = runTenantSchedule(p, set, half, &plan, g.RelaxedInterval, g.HoldDown, watch)
	if err != nil {
		return nil, err
	}
	g.UngatedCost, g.UngatedRecall, err = runTenantSchedule(p, set, half, nil, 0, 0, watch)
	if err != nil {
		return nil, err
	}
	if g.UngatedCost > 0 {
		g.Savings = 1 - g.GatedCost/g.UngatedCost
	}
	return g, nil
}

// runTenantSchedule hosts the second half of the trace — one standalone
// monitor per aggregate and per tenant, all sampling adaptively, tenants
// additionally gated on their plan predictor when plan is non-nil — and
// ticks it as volleyd ticks its hosted tasks. It reports the total weighted
// cost plus the pooled episode recall over the watched tenants: an episode
// is detected when its tenant sampled one of its violating steps.
//
// Aggregate predictors keep a short max interval: a gate is only as
// responsive as the task arming it, and the aggregates are the cheap
// always-on side of the bargain.
func runTenantSchedule(p Preset, set *workload.Set, half int, plan *correlation.Plan,
	relaxedInterval, holdDown int, watch map[string]bool) (cost, recall float64, err error) {
	step, evalW := 0, 0
	var hosted host.Set
	series := make([]*workload.Series, 0, len(set.Aggregates)+len(set.Series))
	sampled := make(map[string][]bool, len(watch)) // per watched tenant: the steps its agent was read on
	addTask := func(s *workload.Series, maxInterval int) error {
		vals := s.Values[half:]
		if evalW == 0 || len(vals) < evalW {
			evalW = len(vals)
		}
		var read []bool
		if watch[s.ID] {
			read = make([]bool, len(vals))
			sampled[s.ID] = read
		}
		cfg := monitor.Config{
			ID:   s.ID,
			Task: s.ID,
			Agent: monitor.AgentFunc(func() (float64, error) {
				if read != nil {
					read[step] = true
				}
				return vals[step], nil
			}),
			Sampler: core.Config{
				Threshold:   s.Threshold,
				Err:         s.Err,
				MaxInterval: maxInterval,
				Patience:    p.Patience,
			},
		}
		t := host.Task{}
		if plan != nil {
			if rule, ok := plan.Gates[s.ID]; ok {
				g, err := correlation.NewGate(relaxedInterval, holdDown)
				if err != nil {
					return err
				}
				cfg.Gate, t.Gates, t.Pred = g, []*correlation.Gate{g}, rule.Predictor
			}
		}
		m, err := monitor.New(cfg)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", s.ID, err)
		}
		t.Mons = []*monitor.Monitor{m}
		hosted.Put(s.ID, t)
		series = append(series, s)
		return nil
	}
	aggMax := p.MaxInterval
	if aggMax > 4 {
		aggMax = 4
	}
	for i := range set.Aggregates {
		if err := addTask(&set.Aggregates[i], aggMax); err != nil {
			return 0, 0, err
		}
	}
	for i := range set.Series {
		if err := addTask(&set.Series[i], p.MaxInterval); err != nil {
			return 0, 0, err
		}
	}

	var tick host.Plan
	tick.Sync(&hosted)
	for step = 0; step < evalW; step++ {
		if _, err := tick.Tick(time.Duration(step)); err != nil {
			return 0, 0, err
		}
	}
	for _, s := range series {
		cost += float64(hosted.Task(s.ID).Mons[0].Stats().Samples) * s.Cost
	}

	episodes, detected := 0, 0
	for _, s := range series {
		read := sampled[s.ID]
		if read == nil {
			continue
		}
		in, hit := false, false
		for i, v := range s.Values[half : half+evalW] {
			if v <= s.Threshold {
				in = false
				continue
			}
			if !in {
				episodes++
				in, hit = true, false
			}
			if !hit && read[i] {
				hit = true
				detected++
			}
		}
	}
	recall = math.NaN()
	if episodes > 0 {
		recall = float64(detected) / float64(episodes)
	}
	return cost, recall, nil
}

// validateWorkload checks the preset's workload-family axes.
func (p Preset) validateWorkload() error {
	switch {
	case p.WloadEntropyNodes < 1 || p.WloadEntropyWindows < 2:
		return fmt.Errorf("bench: workload entropy axes unset (nodes %d, windows %d)", p.WloadEntropyNodes, p.WloadEntropyWindows)
	case p.WloadTenants < 1 || p.WloadTenantGroups < 1 || p.WloadTenantWindows < 4:
		return fmt.Errorf("bench: workload tenant axes unset (tenants %d, groups %d, windows %d)",
			p.WloadTenants, p.WloadTenantGroups, p.WloadTenantWindows)
	case len(p.WloadErrs) == 0 || len(p.WloadErrScales) == 0 || len(p.WloadIntervals) == 0:
		return fmt.Errorf("bench: workload sweep axes unset")
	case p.WloadMinRecall < 0 || p.WloadMinRecall > 1:
		return fmt.Errorf("bench: workload min recall %v outside [0, 1]", p.WloadMinRecall)
	}
	for _, i := range p.WloadIntervals {
		if i < 1 {
			return fmt.Errorf("bench: workload baseline interval %d < 1", i)
		}
	}
	return nil
}

// Table renders the curves as a text table.
func (r *WorkloadResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s (%d monitors × %d windows)\n", r.Family, r.Monitors, r.Windows)
	fmt.Fprintf(&b, "  signal: %s\n", r.Signal)
	fmt.Fprintf(&b, "  %-12s %8s %10s %10s %12s\n", "cell", "ratio", "saving", "misdetect", "episodes")
	dump := func(kind string, pts []WorkloadPoint, adv []float64) {
		for i, pt := range pts {
			fmt.Fprintf(&b, "  %-12s %8.4f %9.1f%% %10.4f %12.4f",
				kind+" "+pt.Label, pt.Ratio, 100*(1-pt.Ratio), pt.Misdetect, pt.EpisodeDetect)
			if adv != nil {
				fmt.Fprintf(&b, "  (advantage %+.4f)", adv[i])
			}
			b.WriteByte('\n')
		}
	}
	dump("volley", r.Volley, r.Advantage)
	dump("uniform", r.Baseline, nil)
	fmt.Fprintf(&b, "  volley beats uniform baseline at equal misdetection: %v\n", r.VolleyBeatsBaseline)
	if g := r.Gating; g != nil {
		fmt.Fprintf(&b, "  gating: %d rules, %d/%d tenants gated, cost %.0f -> %.0f (saving %.1f%%), recall %.3f (ungated %.3f, min %.2f)\n",
			g.Rules, g.GatedTasks, r.Monitors, g.UngatedCost, g.GatedCost, 100*g.Savings, g.Recall, g.UngatedRecall, g.MinRecall)
	}
	return b.String()
}

// CSV renders the curves as CSV.
func (r *WorkloadResult) CSV() string {
	var b strings.Builder
	b.WriteString("family,curve,label,param,ratio,misdetect,episode_detect\n")
	for _, pt := range r.Volley {
		fmt.Fprintf(&b, "%s,volley,%s,%g,%g,%g,%g\n", r.Family, pt.Label, pt.Param, pt.Ratio, pt.Misdetect, pt.EpisodeDetect)
	}
	for _, pt := range r.Baseline {
		fmt.Fprintf(&b, "%s,uniform,%s,%g,%g,%g,%g\n", r.Family, pt.Label, pt.Param, pt.Ratio, pt.Misdetect, pt.EpisodeDetect)
	}
	return b.String()
}
