package workload

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

func quickEntropy() EntropyFlow { return DefaultEntropyFlow(8, 1200, 7) }

func quickTenant() TenantColo { return DefaultTenantColo(96, 8, 1000, 7) }

// TestGenerateDeterministic gates the reproducibility contract: the same
// config yields bit-identical sets on repeated generation.
func TestGenerateDeterministic(t *testing.T) {
	for _, f := range []Family{quickEntropy(), quickTenant()} {
		a, err := Generate(f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		b, err := Generate(f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: repeated generation differs", f.Name())
		}
	}
}

// TestGenSeriesIndexIndependent gates the parallel-generation contract:
// generating series out of order (here: reverse) assembles to the same set
// as Generate, which is what lets Generate fan indices across workers.
func TestGenSeriesIndexIndependent(t *testing.T) {
	for _, f := range []Family{quickEntropy(), quickTenant()} {
		want, err := Generate(f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		series := make([]Series, f.Size())
		for i := f.Size() - 1; i >= 0; i-- {
			s, err := f.GenSeries(i)
			if err != nil {
				t.Fatalf("%s: series %d: %v", f.Name(), i, err)
			}
			series[i] = s
		}
		got, err := f.Assemble(series)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: reverse-order generation differs from serial", f.Name())
		}
	}
}

// TestSeedChangesOutput guards against accidentally ignoring the seed.
func TestSeedChangesOutput(t *testing.T) {
	a, err := Generate(quickEntropy())
	if err != nil {
		t.Fatal(err)
	}
	f := quickEntropy()
	f.Seed = 8
	b, err := Generate(f)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Series[0].Values, b.Series[0].Values) {
		t.Error("different seeds produced identical series")
	}
}

// TestEntropySeparation checks the family does what it claims: injected
// attack epochs collapse entropy hard enough that most attack windows —
// and every epoch — cross the global threshold, while clean windows
// essentially never do. (The EWMA ramp means the first window or two of an
// epoch may still be below threshold, so window-level coverage is bounded
// below 100%.)
func TestEntropySeparation(t *testing.T) {
	f := quickEntropy()
	set, err := Generate(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Truth) != f.WindowsN || len(set.Global) != f.WindowsN {
		t.Fatalf("global/truth lengths = %d/%d, want %d", len(set.Global), len(set.Truth), f.WindowsN)
	}
	var attackWins, attackHits, cleanWins, cleanHits int
	episodes, detected := 0, 0
	in, hit := false, false
	for w, truth := range set.Truth {
		crossed := set.Global[w] > set.GlobalThreshold
		if truth {
			attackWins++
			if crossed {
				attackHits++
			}
			if !in {
				episodes++
				in, hit = true, false
			}
			if !hit && crossed {
				hit = true
				detected++
			}
		} else {
			in = false
			cleanWins++
			if crossed {
				cleanHits++
			}
		}
	}
	if attackWins == 0 {
		t.Fatal("schedule injected no attack epochs")
	}
	if detected != episodes {
		t.Errorf("only %d/%d attack epochs cross the global threshold, want all", detected, episodes)
	}
	if hitRate := float64(attackHits) / float64(attackWins); hitRate < 0.7 {
		t.Errorf("only %.0f%% of attack windows cross the global threshold, want ≥ 70%%", 100*hitRate)
	}
	if fp := float64(cleanHits) / float64(cleanWins); fp > 0.02 {
		t.Errorf("%.1f%% of clean windows cross the global threshold, want ≤ 2%%", 100*fp)
	}
	if set.GlobalErr != f.Err {
		t.Errorf("global err = %v, want %v", set.GlobalErr, f.Err)
	}
	for _, s := range set.Series {
		if s.Err != f.Err {
			t.Errorf("series %s err = %v, want per-node allowance %v", s.ID, s.Err, f.Err)
		}
	}
}

// TestTenantShape checks tier assignment, grouping and the derived
// aggregates.
func TestTenantShape(t *testing.T) {
	f := quickTenant()
	set, err := Generate(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Aggregates) != f.Groups {
		t.Fatalf("aggregates = %d, want %d", len(set.Aggregates), f.Groups)
	}
	tiers := map[string]int{}
	for i, s := range set.Series {
		tiers[s.Tier]++
		if want := set.Aggregates[i%f.Groups].Group; s.Group != want {
			t.Errorf("tenant %d group = %q, want %q", i, s.Group, want)
		}
		if s.Threshold <= 0 || s.Err <= 0 || s.Cost <= 0 {
			t.Errorf("tenant %d has degenerate target %+v", i, s)
		}
	}
	for _, tier := range f.Tiers {
		if tiers[tier.Name] == 0 {
			t.Errorf("tier %s drew no tenants (got %v)", tier.Name, tiers)
		}
	}
	// Aggregates are exact group sums.
	for g, agg := range set.Aggregates {
		sum := 0.0
		for i, s := range set.Series {
			if i%f.Groups == g {
				sum += s.Values[17]
			}
		}
		if math.Abs(agg.Values[17]-sum) > 1e-9 {
			t.Errorf("group %d aggregate window 17 = %v, want member sum %v", g, agg.Values[17], sum)
		}
	}
	// Group bursts must make aggregates predictive: every aggregate needs
	// some violating windows.
	for _, agg := range set.Aggregates {
		viol := 0
		for _, ok := range (&agg).Violations() {
			if ok {
				viol++
			}
		}
		if viol == 0 {
			t.Errorf("aggregate %s never violates its threshold", agg.ID)
		}
	}
}

// TestValidation covers config rejection.
func TestValidation(t *testing.T) {
	bad := quickEntropy()
	bad.Sources = 1
	if _, err := Generate(bad); err == nil {
		t.Error("entropy with 1 source accepted")
	}
	if _, err := quickEntropy().GenSeries(99); err == nil {
		t.Error("out-of-range entropy index accepted")
	}
	badT := quickTenant()
	badT.Tiers = nil
	if _, err := Generate(badT); err == nil {
		t.Error("tenant family without tiers accepted")
	}
	badT = quickTenant()
	badT.Groups = badT.Tenants + 1
	if _, err := Generate(badT); err == nil {
		t.Error("more groups than tenants accepted")
	}
	if _, err := quickTenant().GenSeries(-1); err == nil {
		t.Error("negative tenant index accepted")
	}
	ef := quickEntropy()
	if _, err := ef.Assemble(make([]Series, 1)); err == nil {
		t.Error("entropy assemble with wrong series count accepted")
	}
}

// generateSerially is Generate as it was before it fanned out: GenSeries on
// the family itself for every index in order, then Assemble. It is the
// reference the parallel Generate and the shared group timelines must match.
func generateSerially(f Family) (*Set, error) {
	out := make([]Series, f.Size())
	for i := range out {
		s, err := f.GenSeries(i)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return f.Assemble(out)
}

// sameSeries compares two series field by field, values by their bits.
func sameSeries(t *testing.T, what string, got, want Series) {
	t.Helper()
	if got.ID != want.ID || got.Group != want.Group || got.Tier != want.Tier {
		t.Fatalf("%s: identity %q/%q/%q, want %q/%q/%q", what, got.ID, got.Group, got.Tier, want.ID, want.Group, want.Tier)
	}
	if math.Float64bits(got.Threshold) != math.Float64bits(want.Threshold) ||
		math.Float64bits(got.Err) != math.Float64bits(want.Err) ||
		math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
		t.Fatalf("%s: target (%v, %v, %v), want (%v, %v, %v)", what,
			got.Threshold, got.Err, got.Cost, want.Threshold, want.Err, want.Cost)
	}
	sameFloats(t, what+" values", got.Values, want.Values)
}

func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for w := range want {
		if math.Float64bits(got[w]) != math.Float64bits(want[w]) {
			t.Fatalf("%s: [%d] = %v, want %v", what, w, got[w], want[w])
		}
	}
}

// TestGenerateIsBitIdenticalAtAnyParallelism: with one, two or eight
// workers Generate assembles exactly the set a serial walk does, for both
// families, every field of every series.
func TestGenerateIsBitIdenticalAtAnyParallelism(t *testing.T) {
	for _, f := range []Family{quickEntropy(), quickTenant()} {
		want, err := generateSerially(f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		for _, procs := range []int{1, 2, 8} {
			prev := runtime.GOMAXPROCS(procs)
			got, err := Generate(f)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%s at %d procs: %v", f.Name(), procs, err)
			}
			what := fmt.Sprintf("%s at %d procs", f.Name(), procs)
			if got.Family != want.Family || got.Signal != want.Signal ||
				math.Float64bits(got.GlobalThreshold) != math.Float64bits(want.GlobalThreshold) ||
				math.Float64bits(got.GlobalErr) != math.Float64bits(want.GlobalErr) ||
				len(got.Series) != len(want.Series) || len(got.Aggregates) != len(want.Aggregates) {
				t.Fatalf("%s: set header differs: %+v", what, got)
			}
			for i := range want.Series {
				sameSeries(t, fmt.Sprintf("%s series %d", what, i), got.Series[i], want.Series[i])
			}
			for g := range want.Aggregates {
				sameSeries(t, fmt.Sprintf("%s aggregate %d", what, g), got.Aggregates[g], want.Aggregates[g])
			}
			sameFloats(t, what+" global", got.Global, want.Global)
			if !reflect.DeepEqual(got.Truth, want.Truth) {
				t.Fatalf("%s: ground truth differs", what)
			}
			// A subset, shuffled, twice through one generator: its
			// scratches, used by the first batch, serve the second.
			g := NewGenerator(f)
			prev = runtime.GOMAXPROCS(procs)
			for round := 0; round < 2; round++ {
				indices := shuffledSubset(f.Size(), int64(procs+round))
				out := make([]Series, len(indices))
				if err := g.Generate(indices, out); err != nil {
					t.Fatalf("%s subset: %v", what, err)
				}
				for k, i := range indices {
					sameSeries(t, fmt.Sprintf("%s subset round %d series %d", what, round, i), out[k], want.Series[i])
				}
			}
			runtime.GOMAXPROCS(prev)
		}
	}
}

// shuffledSubset is every other index below n, from an offset, shuffled.
func shuffledSubset(n int, seed int64) []int {
	var out []int
	for i := int(seed % 2); i < n; i += 2 {
		out = append(out, i)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// TestGenerateReportsTheFirstError: whatever the fan-out, a failing family
// reports the error a walk in index order meets first.
func TestGenerateReportsTheFirstError(t *testing.T) {
	f := quickTenant()
	f.BurstMag = -1
	_, want := generateSerially(f)
	for _, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		_, err := Generate(f)
		runtime.GOMAXPROCS(prev)
		if err == nil || err.Error() != want.Error() {
			t.Errorf("at %d procs: err = %v, want %v", procs, err, want)
		}
	}
	if _, err := Generate(failsAt{quickEntropy(), 5}); err == nil || err.Error() != "series 5" {
		t.Errorf("err = %v, want the lowest failing index", err)
	}
}

// failsAt is a family whose series from index from on fail, each with its
// own error.
type failsAt struct {
	EntropyFlow
	from int
}

func (f failsAt) GenSeries(i int) (Series, error) {
	if i >= f.from {
		return Series{}, fmt.Errorf("series %d", i)
	}
	return f.EntropyFlow.GenSeries(i)
}

// TestGroupTimelineSharedNotChanged: the timeline Generate derives once per
// group is the one each member derives for itself — a member's series out
// of Generate equals GenSeries(i) called alone.
func TestGroupTimelineSharedNotChanged(t *testing.T) {
	f := quickTenant()
	set, err := Generate(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, f.Groups - 1, f.Groups, f.Groups + 1, 2*f.Groups + 3, f.Tenants - 1} {
		alone, err := f.GenSeries(i)
		if err != nil {
			t.Fatal(err)
		}
		sameSeries(t, fmt.Sprintf("tenant %d", i), set.Series[i], alone)
	}
	// And the timelines themselves: every group's, as its members see it.
	shared := f.withTimelines()
	for g := 0; g < f.Groups; g++ {
		if !reflect.DeepEqual(shared.events[g], f.groupEvents(g)) {
			t.Fatalf("group %d: the shared timeline is not the derived one", g)
		}
	}
	// An invalid family still fails in GenSeries, not in withTimelines.
	f.Groups = 0
	if _, err := Generate(f); err == nil {
		t.Fatal("an invalid tenant family generated")
	}
}

// scratchFamilies are the two families as Generate's workers run them: each
// with the generate it calls into a worker's scratch.
func scratchFamilies(entropy EntropyFlow, tenant TenantColo) []struct {
	f   Family
	gen func(int, *scratch) (Series, error)
} {
	tl := tenant.withTimelines()
	return []struct {
		f   Family
		gen func(int, *scratch) (Series, error)
	}{{entropy, entropy.generate}, {tl, tl.generate}}
}

// TestUsedScratchGeneratesWhatAFreshOneDoes: a scratch that has generated
// other series — of a longer, differently shaped family first, then the
// family's own in reverse — generates every index of both families exactly
// as GenSeries with a fresh scratch does.
func TestUsedScratchGeneratesWhatAFreshOneDoes(t *testing.T) {
	bigEntropy := DefaultEntropyFlow(12, 2000, 3)
	bigEntropy.Sources, bigEntropy.Skew = 2*bigEntropy.Sources, bigEntropy.Skew/2
	dirty := scratchFamilies(bigEntropy, DefaultTenantColo(40, 4, 3000, 3))
	for k, fam := range scratchFamilies(quickEntropy(), quickTenant()) {
		sc := newScratch()
		for i := 0; i < dirty[k].f.Size(); i++ {
			if _, err := dirty[k].gen(i, sc); err != nil {
				t.Fatal(err)
			}
		}
		for i := fam.f.Size() - 1; i >= 0; i-- {
			got, err := fam.gen(i, sc)
			if err != nil {
				t.Fatalf("%s: series %d: %v", fam.f.Name(), i, err)
			}
			want, err := fam.f.GenSeries(i)
			if err != nil {
				t.Fatal(err)
			}
			sameSeries(t, fmt.Sprintf("%s series %d", fam.f.Name(), i), got, want)
		}
		// The same through a Generator whose one worker inherits the used
		// scratch, over a shuffled subset.
		g := NewGenerator(fam.f)
		g.scratches = []*scratch{sc}
		prev := runtime.GOMAXPROCS(1)
		indices := shuffledSubset(fam.f.Size(), 5)
		out := make([]Series, len(indices))
		err := g.Generate(indices, out)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		for k, i := range indices {
			want, err := fam.f.GenSeries(i)
			if err != nil {
				t.Fatal(err)
			}
			sameSeries(t, fmt.Sprintf("%s generator series %d", fam.f.Name(), i), out[k], want)
		}
	}
}

// TestGenSeriesAllocsDoNotGrowWithWindows: in a worker's scratch a series
// costs its Values and a few small strings — as many allocations, and the
// same bytes beyond Values, at 512 windows as at 4 096. Before the scratch a
// tenant series also paid a fresh generator (≈ 5 KB) and a copy of its
// values for the threshold quantile.
func TestGenSeriesAllocsDoNotGrowWithWindows(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates where the plain build does not")
	}
	type cost struct{ allocs, extra float64 }
	measure := func(gen func(int, *scratch) (Series, error), windows int) cost {
		sc := newScratch()
		run := func() {
			if _, err := gen(3, sc); err != nil {
				t.Fatal(err)
			}
		}
		run() // the scratch grows to the family once
		const runs = 10
		// TotalAlloc counts the whole process: the least of three rounds is
		// the one nothing else allocated during.
		perSeries := math.Inf(1)
		for round := 0; round < 3; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			perSeries = min(perSeries, float64(after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return cost{testing.AllocsPerRun(runs, run), perSeries - 8*float64(windows)}
	}
	costs := map[int][]cost{}
	for _, windows := range []int{512, 4096} {
		e := quickEntropy()
		e.WindowsN = windows
		for _, fam := range scratchFamilies(e, DefaultTenantColo(96, 8, windows, 7)) {
			c := measure(fam.gen, windows)
			t.Logf("%s at %d windows: %v allocations, %.0f B beyond Values", fam.f.Name(), windows, c.allocs, c.extra)
			if c.allocs > 4 || c.extra > 256 {
				t.Errorf("%s at %d windows: %v allocations and %.0f B beyond its Values, want ≤ 4 and ≤ 256 B",
					fam.f.Name(), windows, c.allocs, c.extra)
			}
			costs[windows] = append(costs[windows], c)
		}
	}
	for k := range costs[512] {
		if costs[512][k].allocs != costs[4096][k].allocs {
			t.Errorf("family %d: %v allocations at 512 windows, %v at 4 096", k, costs[512][k].allocs, costs[4096][k].allocs)
		}
	}
}
