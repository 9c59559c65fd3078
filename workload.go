package volley

import (
	"volley/internal/workload"
)

// WorkloadFamily is a deterministic synthetic monitoring workload: a set
// of per-monitor series generated from a seeded config, with per-series
// (T, err) targets and ground-truth labels. Families drive the end-to-end
// savings/misdetection evaluation in internal/bench and the volleyd
// workload: signal sources.
type WorkloadFamily = workload.Family

// WorkloadSeries is one monitor's series with its monitoring target.
type WorkloadSeries = workload.Series

// WorkloadSet is an assembled family: per-monitor series, derived
// aggregate/global tasks and ground-truth labels.
type WorkloadSet = workload.Set

// EntropyFlowWorkload is the entropy-of-flow-distribution family: per-node
// source-address entropy deficits with injected DDoS epochs.
type EntropyFlowWorkload = workload.EntropyFlow

// TenantColoWorkload is the multi-tenant SLO colocation family: per-tenant
// CPU-requirement series with correlated group bursts, tiered (T, err)
// targets and cheap per-group aggregate predictor tasks.
type TenantColoWorkload = workload.TenantColo

// WorkloadTenantTier is one SLO class of the tenant-colocation family.
type WorkloadTenantTier = workload.TenantTier

// GenerateWorkload generates and assembles a family, its series fanned over
// GOMAXPROCS workers. The set is bit-identical at any worker count
// (Family.GenSeries is index-independent by contract, and every worker
// writes only the slots of the indices it claims).
func GenerateWorkload(f WorkloadFamily) (*WorkloadSet, error) {
	return workload.Generate(f)
}

// DefaultEntropyFlowWorkload returns the tuned entropy-of-flow family.
func DefaultEntropyFlowWorkload(nodes, windows int, seed int64) EntropyFlowWorkload {
	return workload.DefaultEntropyFlow(nodes, windows, seed)
}

// DefaultTenantColoWorkload returns the tuned tenant-colocation family.
func DefaultTenantColoWorkload(tenants, groups, windows int, seed int64) TenantColoWorkload {
	return workload.DefaultTenantColo(tenants, groups, windows, seed)
}
