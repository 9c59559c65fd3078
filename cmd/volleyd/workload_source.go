package main

import (
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"volley"
	"volley/internal/workload"
)

// The workload: source scheme serves one series of a synthetic workload
// family (internal/workload) as a live metric, mapping wall time onto
// window indices. It exists so a real volleyd cluster can be driven by the
// same reproducible families the benchmark sweeps use — e.g. admitting a
// thousand tenant tasks whose bursts are genuinely correlated with their
// group aggregates — without standing up external exporters.
//
// Forms (query parameters after the family name):
//
//	workload:entropy?index=I[&nodes=N&windows=W&seed=S&period=D]
//	workload:tenant?index=I[&tenants=N&groups=G&windows=W&seed=S&period=D]
//	workload:tenantagg?group=K[&tenants=N&groups=G&windows=W&seed=S&period=D]
//
// entropy serves node I's entropy-deficit series, tenant serves tenant I's
// CPU series, and tenantagg serves group K's derived aggregate series (the
// cheap predictor the correlation gate arms tenants from). period is the
// wall-clock duration of one window (default 1s); the series wraps around
// after windows·period. All workload agents in the process share one epoch,
// so series generated from the same family parameters stay aligned in time
// — an aggregate's burst windows coincide with its member tenants' bursts,
// which is what makes gating on them sound.
//
// A source has a lifetime (DESIGN.md §16, "A source's lifetime"): it is
// checked where a task is admitted (parseWorkloadSource, which generates
// nothing), built where the task's monitors are hosted (workloadSources.build,
// which generates the series the daemon lacks), and released with them.
var (
	workloadEpochOnce sync.Once
	workloadEpoch     time.Time
)

// workloadNow returns elapsed wall time since the shared epoch.
func workloadNow() time.Duration {
	workloadEpochOnce.Do(func() { workloadEpoch = time.Now() })
	return time.Since(workloadEpoch)
}

// workloadKey names a family configuration: the sources that share one
// share its series.
type workloadKey struct {
	family  string // "entropy" or "tenant"
	size    int    // nodes or tenants
	groups  int    // tenant only
	windows int
	seed    int
}

// config is the family the key names.
func (k workloadKey) config() workload.Family {
	if k.family == "entropy" {
		return workload.DefaultEntropyFlow(k.size, k.windows, int64(k.seed))
	}
	return workload.DefaultTenantColo(k.size, k.groups, k.windows, int64(k.seed))
}

// workloadSource is a checked workload: source: the family configuration
// it reads and the series it serves there.
type workloadSource struct {
	key    workloadKey
	period time.Duration
	// index is the series served; -1 for a tenantagg, which serves group's
	// aggregate instead.
	index, group int
}

// parseWorkloadSource checks a workload: source — family, parameters, the
// family configuration and the index or group — without generating
// anything.
func parseWorkloadSource(source string) (workloadSource, error) {
	u, err := url.Parse(source)
	if err != nil {
		return workloadSource{}, fmt.Errorf("parse source %q: %w", source, err)
	}
	q, err := url.ParseQuery(u.RawQuery)
	if err != nil {
		return workloadSource{}, fmt.Errorf("parse source %q query: %w", source, err)
	}
	ws := workloadSource{index: -1, group: -1}
	if ws.period, err = workloadDuration(q, "period", time.Second); err != nil {
		return workloadSource{}, err
	}
	seed, err := workloadInt(q, "seed", 1)
	if err != nil {
		return workloadSource{}, err
	}
	windows, err := workloadInt(q, "windows", 2048)
	if err != nil {
		return workloadSource{}, err
	}

	// The configuration's error, the bound the index or group must lie
	// below, and the name of the parameter carrying it.
	var (
		cfgErr error
		size   int
		param  = "index"
	)
	switch family := u.Opaque; family {
	case "entropy":
		nodes, err := workloadInt(q, "nodes", 16)
		if err != nil {
			return workloadSource{}, err
		}
		ws.key = workloadKey{family: family, size: nodes, windows: windows, seed: seed}
		cfgErr, size = workload.DefaultEntropyFlow(nodes, windows, int64(seed)).Validate(), nodes
	case "tenant", "tenantagg":
		tenants, err := workloadInt(q, "tenants", 256)
		if err != nil {
			return workloadSource{}, err
		}
		groups, err := workloadInt(q, "groups", 16)
		if err != nil {
			return workloadSource{}, err
		}
		ws.key = workloadKey{family: "tenant", size: tenants, groups: groups, windows: windows, seed: seed}
		cfgErr, size = workload.DefaultTenantColo(tenants, groups, windows, int64(seed)).Validate(), tenants
		if family == "tenantagg" {
			param, size = "group", groups
		}
	default:
		return workloadSource{}, fmt.Errorf("unknown workload family %q in source %q (want entropy, tenant or tenantagg)", family, source)
	}
	if cfgErr != nil {
		return workloadSource{}, fmt.Errorf("source %q: %w", source, cfgErr)
	}
	i, err := workloadInt(q, param, -1)
	if err != nil {
		return workloadSource{}, err
	}
	if i < 0 || i >= size {
		return workloadSource{}, fmt.Errorf("source %q: %s %d outside [0, %d)", source, param, i, size)
	}
	if param == "group" {
		ws.group = i
	} else {
		ws.index = i
	}
	return ws, nil
}

// workloadSources is a daemon's workload: families: one entry per family
// configuration, holding the series the monitors hosted here read. series
// and bytes count what the entries hold; the entries move them under mu, a
// scrape reads them without it.
type workloadSources struct {
	mu            sync.Mutex
	entries       map[workloadKey]*workloadEntry
	series, bytes atomic.Int64
}

// workloadEntry is one family configuration: the series generated for the
// agents reading it, by index, and the generator, with its scratches, they
// were generated in. It goes, and all of that with it, when its last agent is
// released. No series is generated twice in one entry.
type workloadEntry struct {
	key    workloadKey
	family workload.Family
	gen    *workload.Generator
	series [][]float64 // by index; nil until generated
	aggs   [][]float64 // tenantagg: by group; nil until summed
	refs   int         // agents holding the entry
	held   int         // series held, aggregates included
}

func newWorkloadSources() *workloadSources {
	return &workloadSources{entries: make(map[workloadKey]*workloadEntry)}
}

// workloadAgent serves one kept series: a sample is an index into it.
type workloadAgent struct {
	values []float64
	period time.Duration
	entry  *workloadEntry
}

// Sample implements volley.Agent.
func (a *workloadAgent) Sample() (float64, error) {
	return a.values[int(workloadNow()/a.period)%len(a.values)], nil
}

// build builds agents[i] for every workload: source srcs[i], each agent
// holding its entry. Every series an entry lacks is generated in one batch
// for the entry, and a tenantagg's members are generated and kept beside the
// sum it serves.
func (s *workloadSources) build(srcs []checkedSource, agents []volley.Agent) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries := make([]*workloadEntry, len(srcs))
	missing := make(map[*workloadEntry][]int)
	for k, src := range srcs {
		if src.agent != nil {
			continue
		}
		e := s.entries[src.ws.key]
		if e == nil {
			f := src.ws.key.config()
			e = &workloadEntry{key: src.ws.key, family: f, gen: workload.NewGenerator(f), series: make([][]float64, f.Size())}
			if tc, ok := f.(workload.TenantColo); ok {
				e.aggs = make([][]float64, tc.Groups)
			}
			s.entries[src.ws.key] = e
		}
		entries[k] = e
		if i := src.ws.index; i >= 0 {
			if e.series[i] == nil {
				missing[e] = append(missing[e], i)
			}
			continue
		}
		for _, i := range e.family.(workload.TenantColo).Members(src.ws.group) {
			if e.series[i] == nil {
				missing[e] = append(missing[e], i)
			}
		}
	}
	for e, indices := range missing {
		slices.Sort(indices)
		indices = slices.Compact(indices)
		out := make([]workload.Series, len(indices))
		if err := e.gen.Generate(indices, out); err != nil {
			// A checked source generates; should one not, the entries this
			// batch made hold nothing and go.
			for _, e := range entries {
				if e != nil {
					s.dropIfUnused(e)
				}
			}
			return err
		}
		for k, i := range indices {
			e.series[i] = out[k].Values
		}
		s.hold(e, len(indices))
	}
	for k, e := range entries {
		if e == nil {
			continue
		}
		ws := srcs[k].ws
		var values []float64
		if ws.index >= 0 {
			values = e.series[ws.index]
		} else {
			if e.aggs[ws.group] == nil {
				e.aggs[ws.group] = e.family.(workload.TenantColo).GroupSum(ws.group, func(i int) []float64 { return e.series[i] })
				s.hold(e, 1)
			}
			values = e.aggs[ws.group]
		}
		e.refs++
		agents[k] = &workloadAgent{values: values, period: ws.period, entry: e}
	}
	return nil
}

// hold counts n more series of e's windows as held.
func (s *workloadSources) hold(e *workloadEntry, n int) {
	e.held += n
	s.series.Add(int64(n))
	s.bytes.Add(int64(n) * int64(e.family.Windows()) * 8)
}

// release drops a's hold on its entry. The entry's last agent takes the
// entry, its series and its generator with it.
func (s *workloadSources) release(a *workloadAgent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a.entry.refs--
	s.dropIfUnused(a.entry)
}

// dropIfUnused removes e once no agent holds it; the caller holds mu.
func (s *workloadSources) dropIfUnused(e *workloadEntry) {
	if e.refs > 0 || s.entries[e.key] != e {
		return
	}
	delete(s.entries, e.key)
	s.hold(e, -e.held)
}

// workloadInt reads one integer query parameter with a default.
func workloadInt(q url.Values, name string, def int) (int, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("workload parameter %s=%q: %w", name, s, err)
	}
	return v, nil
}

// workloadDuration reads one duration query parameter with a default.
func workloadDuration(q url.Values, name string, def time.Duration) (time.Duration, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("workload parameter %s=%q: %w", name, s, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("workload parameter %s=%q: must be positive", name, s)
	}
	return d, nil
}
