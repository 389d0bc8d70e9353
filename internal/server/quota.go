package server

// Admission: the weighted FIFO semaphore and, on top of it, per-tenant
// quotas — the multi-tenant isolation layer. The semaphore bounds how
// much planner work the whole process runs at once; the quota bounds how
// much of that budget any single tenant may hold, so one tenant flooding
// /v1/recommend-batch cannot starve everyone else's interactive
// requests. Quota checks are fail-fast: a breach returns a typed
// budget_exceeded error immediately (the client should back off or use
// the async job API at a slower rate) rather than queueing until the
// deadline converts the overload into an opaque 504.

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"

	"performa/internal/wfmserr"
)

// admission is the one gate planner work passes: the semaphore of
// Options.Workers tokens, one per concurrent planner run, and under it
// the per-tenant quotas.
type admission struct {
	workers int
	sem     *semaphore
	quotas  *tenantQuotas
}

func newAdmission(workers, tenantBudget int) *admission {
	return &admission{workers: workers, sem: newSemaphore(workers), quotas: newTenantQuotas(tenantBudget)}
}

// width is how many tokens a request for n concurrent planner runs
// takes, and so how many of them it may run at once: n clamped to the
// worker budget and, with tenant quotas on, to the tenant budget, so a
// batch wider than either is admitted at the width it may hold instead
// of being refused.
func (a *admission) width(n int) int {
	n = max(1, min(n, a.workers))
	if a.quotas.budget > 0 {
		n = min(n, a.quotas.budget)
	}
	return n
}

// acquire takes width(n) tokens for tenant and returns their release
// func (nil iff acquire failed). The tenant's quota is debited first,
// fail-fast with a typed budget_exceeded: a breach must surface at
// once, not queue until the deadline turns it into a 504. Then the
// semaphore is waited on until ctx is done. Internal work (re-plans,
// event ingestion, calibration) passes tenant "" and skips the quota.
func (a *admission) acquire(ctx context.Context, tenant string, n int) (func(), error) {
	n = a.width(n)
	releaseQuota := func() {}
	if tenant != "" {
		var err error
		if releaseQuota, err = a.quotas.acquire(tenant, n); err != nil {
			return nil, err
		}
	}
	if err := a.sem.Acquire(ctx, n); err != nil {
		releaseQuota()
		return nil, err
	}
	return func() {
		a.sem.Release(n)
		releaseQuota()
	}, nil
}

func (a *admission) stats(resp *StatsResponse) {
	resp.Admission = AdmissionStatsJSON{
		WorkerBudget: a.workers,
		PerRequest:   1,
		InUse:        a.sem.InUse(),
		Waiting:      a.sem.Waiting(),
	}
	resp.Tenants = a.quotas.stats()
}

// tenantOf resolves the request's tenant: the body field when set, else
// the X-Tenant header, else the catch-all default tenant.
func tenantOf(r *http.Request, field string) string {
	if t := strings.TrimSpace(field); t != "" {
		return t
	}
	if t := strings.TrimSpace(r.Header.Get("X-Tenant")); t != "" {
		return t
	}
	return defaultTenant
}

// quotaStatus is the HTTP status of an admission failure: 429 for a
// tenant-quota rejection, else the context error's status.
func quotaStatus(err error) int {
	if errors.Is(err, wfmserr.ErrBudgetExceeded) {
		return http.StatusTooManyRequests
	}
	return statusForError(err)
}

// defaultTenant is the bucket for requests that carry no tenant field
// and no X-Tenant header. It is quota'd like any named tenant.
const defaultTenant = "default"

// maxTrackedTenants bounds the per-tenant accounting map; an adversary
// minting a fresh tenant name per request must not grow server memory
// without bound. Overflow tenants share one aggregated bucket.
const maxTrackedTenants = 256

// overflowTenant aggregates tenants beyond maxTrackedTenants.
const overflowTenant = "~overflow"

// tenantState is one tenant's accounting: tokens currently held plus
// lifetime counters.
type tenantState struct {
	inUse      int
	requests   uint64
	rejections uint64
}

// tenantQuotas enforces a uniform per-tenant token budget. budget <= 0
// disables enforcement but keeps the per-tenant counters (they feed
// /v1/stats and the Prometheus tenant series either way).
type tenantQuotas struct {
	budget int

	mu      sync.Mutex
	tenants map[string]*tenantState
}

func newTenantQuotas(budget int) *tenantQuotas {
	return &tenantQuotas{budget: budget, tenants: make(map[string]*tenantState)}
}

// bucket resolves the accounting bucket for a tenant name, spilling new
// names into the overflow bucket once the map is full. Callers must
// hold q.mu.
func (q *tenantQuotas) bucket(tenant string) *tenantState {
	if st, ok := q.tenants[tenant]; ok {
		return st
	}
	if len(q.tenants) >= maxTrackedTenants {
		if st, ok := q.tenants[overflowTenant]; ok {
			return st
		}
		tenant = overflowTenant
	}
	st := &tenantState{}
	q.tenants[tenant] = st
	return st
}

// acquire debits n tokens from the tenant's budget, failing fast with a
// typed budget_exceeded error when the tenant would exceed it. The
// returned release func credits the tokens back; it is nil iff acquire
// failed.
func (q *tenantQuotas) acquire(tenant string, n int) (func(), error) {
	q.mu.Lock()
	st := q.bucket(tenant)
	st.requests++
	if q.budget > 0 && st.inUse+n > q.budget {
		st.rejections++
		inUse := st.inUse
		q.mu.Unlock()
		return nil, wfmserr.New(wfmserr.CodeBudgetExceeded, "server",
			"tenant %q quota exceeded: %d worker tokens in use, %d requested, budget %d",
			tenant, inUse, n, q.budget).
			With("tenant", tenant).With("in_use", inUse).With("requested", n).With("budget", q.budget)
	}
	st.inUse += n
	q.mu.Unlock()

	var once sync.Once
	return func() {
		once.Do(func() {
			q.mu.Lock()
			st.inUse -= n
			if st.inUse < 0 {
				st.inUse = 0
			}
			q.mu.Unlock()
		})
	}, nil
}

// stats snapshots the per-tenant counters.
func (q *tenantQuotas) stats() map[string]TenantStatsJSON {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.tenants) == 0 {
		return nil
	}
	out := make(map[string]TenantStatsJSON, len(q.tenants))
	for name, st := range q.tenants {
		out[name] = TenantStatsJSON{
			Requests:   st.requests,
			Rejections: st.rejections,
			InUse:      st.inUse,
		}
	}
	return out
}
