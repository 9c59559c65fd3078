package main

import (
	"fmt"
	"net/url"
	"strconv"
	"sync"
	"time"

	"volley"
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
var (
	workloadEpochOnce sync.Once
	workloadEpoch     time.Time

	workloadCacheMu sync.Mutex
	workloadCache   = map[string]*volley.WorkloadSet{}
)

// workloadNow returns elapsed wall time since the shared epoch.
func workloadNow() time.Duration {
	workloadEpochOnce.Do(func() { workloadEpoch = time.Now() })
	return time.Since(workloadEpoch)
}

// workloadSet generates (or returns the cached) assembled set for one
// family configuration, so a thousand agents over the same family pay for
// generation once: the first admission to name the family does, with its
// series fanned over GOMAXPROCS workers (volley.GenerateWorkload).
func workloadSet(key string, gen func() (*volley.WorkloadSet, error)) (*volley.WorkloadSet, error) {
	workloadCacheMu.Lock()
	defer workloadCacheMu.Unlock()
	if set, ok := workloadCache[key]; ok {
		return set, nil
	}
	set, err := gen()
	if err != nil {
		return nil, err
	}
	workloadCache[key] = set
	return set, nil
}

// buildWorkloadAgent turns a workload: source into a sampling function.
func buildWorkloadAgent(source string) (volley.Agent, error) {
	u, err := url.Parse(source)
	if err != nil {
		return nil, fmt.Errorf("parse source %q: %w", source, err)
	}
	q, err := url.ParseQuery(u.RawQuery)
	if err != nil {
		return nil, fmt.Errorf("parse source %q query: %w", source, err)
	}
	period, err := workloadDuration(q, "period", time.Second)
	if err != nil {
		return nil, err
	}
	seed, err := workloadInt(q, "seed", 1)
	if err != nil {
		return nil, err
	}
	windows, err := workloadInt(q, "windows", 2048)
	if err != nil {
		return nil, err
	}

	var values []float64
	switch family := u.Opaque; family {
	case "entropy":
		nodes, err := workloadInt(q, "nodes", 16)
		if err != nil {
			return nil, err
		}
		index, err := workloadInt(q, "index", -1)
		if err != nil {
			return nil, err
		}
		if index < 0 || index >= nodes {
			return nil, fmt.Errorf("source %q: index %d outside [0, %d)", source, index, nodes)
		}
		key := fmt.Sprintf("entropy/%d/%d/%d", nodes, windows, seed)
		set, err := workloadSet(key, func() (*volley.WorkloadSet, error) {
			return volley.GenerateWorkload(volley.DefaultEntropyFlowWorkload(nodes, windows, int64(seed)))
		})
		if err != nil {
			return nil, err
		}
		values = set.Series[index].Values
	case "tenant", "tenantagg":
		tenants, err := workloadInt(q, "tenants", 256)
		if err != nil {
			return nil, err
		}
		groups, err := workloadInt(q, "groups", 16)
		if err != nil {
			return nil, err
		}
		key := fmt.Sprintf("tenant/%d/%d/%d/%d", tenants, groups, windows, seed)
		set, err := workloadSet(key, func() (*volley.WorkloadSet, error) {
			return volley.GenerateWorkload(volley.DefaultTenantColoWorkload(tenants, groups, windows, int64(seed)))
		})
		if err != nil {
			return nil, err
		}
		if family == "tenant" {
			index, err := workloadInt(q, "index", -1)
			if err != nil {
				return nil, err
			}
			if index < 0 || index >= tenants {
				return nil, fmt.Errorf("source %q: index %d outside [0, %d)", source, index, tenants)
			}
			values = set.Series[index].Values
		} else {
			group, err := workloadInt(q, "group", -1)
			if err != nil {
				return nil, err
			}
			if group < 0 || group >= groups {
				return nil, fmt.Errorf("source %q: group %d outside [0, %d)", source, group, groups)
			}
			values = set.Aggregates[group].Values
		}
	default:
		return nil, fmt.Errorf("unknown workload family %q in source %q (want entropy, tenant or tenantagg)", family, source)
	}

	return volley.AgentFunc(func() (float64, error) {
		idx := int(workloadNow()/period) % len(values)
		return values[idx], nil
	}), nil
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
