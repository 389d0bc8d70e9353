package server

// Tenant-quota coverage: fail-fast 429s once a tenant's token budget is
// held, isolation between tenants, header-based attribution, the
// bounded accounting map, and the disabled-quota counters.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"performa/internal/wfmserr"
)

// postJSONTenant posts body with an X-Tenant header.
func postJSONTenant(t testing.TB, url, tenant string, body any) (int, ErrorResponse) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var e ErrorResponse
	if resp.StatusCode != http.StatusOK {
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("error body not JSON (status %d): %v\n%s", resp.StatusCode, err, raw)
		}
	}
	return resp.StatusCode, e
}

// TestTenantQuotaRejectsOverBudget holds tenant alice's whole budget
// and requires the next alice request to fail fast with a typed 429
// while tenant bob still gets through — the isolation property.
func TestTenantQuotaRejectsOverBudget(t *testing.T) {
	doc, _ := paperSystem(t)
	// Workers 4 → 4 admission slots of width 1; budget 1 token per
	// tenant, so one held request exhausts a tenant without denting the
	// semaphore.
	s, ts := newTestServer(t, Options{Workers: 4, TenantBudget: 1})

	release, err := s.admission.quotas.acquire("alice", 1)
	if err != nil {
		t.Fatal(err)
	}

	body := AssessRequest{
		System: doc, Config: []int{2, 2, 2},
		Goals:  GoalsJSON{MaxUnavailability: 1e-5},
		Tenant: "alice",
	}
	for round := 0; round < 2; round++ {
		status, e := postRaw(t, ts.URL+"/v1/assess", mustJSON(t, body))
		if status != http.StatusTooManyRequests || e.Code != string(wfmserr.CodeBudgetExceeded) {
			t.Fatalf("alice over budget (round %d): status/code = %d/%q, want 429/%s",
				round, status, e.Code, wfmserr.CodeBudgetExceeded)
		}
	}

	// bob (via the X-Tenant header) is untouched by alice's exhaustion.
	bobBody := body
	bobBody.Tenant = ""
	if status, e := postJSONTenant(t, ts.URL+"/v1/assess", "bob", bobBody); status != http.StatusOK {
		t.Fatalf("bob status = %d (%+v), want 200", status, e)
	}

	release()
	if status := postJSON(t, ts.URL+"/v1/assess", body, nil); status != http.StatusOK {
		t.Fatalf("alice after release: status = %d, want 200", status)
	}

	var stats StatsResponse
	if st := getJSON(t, ts.URL+"/v1/stats", &stats); st != http.StatusOK {
		t.Fatalf("stats status = %d", st)
	}
	alice := stats.Tenants["alice"]
	if alice.Rejections != 2 || alice.InUse != 0 {
		t.Errorf("alice stats = %+v, want rejections=2 in_use=0", alice)
	}
	if bob := stats.Tenants["bob"]; bob.Requests == 0 || bob.Rejections != 0 {
		t.Errorf("bob stats = %+v, want requests>0 rejections=0", bob)
	}

	// The per-tenant Prometheus series carry the same numbers.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`wfmsd_tenant_rejections_total{tenant="alice"} 2`,
		`wfmsd_tenant_in_use{tenant="alice"} 0`,
		`wfmsd_tenant_requests_total{tenant="bob"}`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestTenantQuotaDisabled keeps the accounting but never rejects when
// the budget is 0.
func TestTenantQuotaDisabled(t *testing.T) {
	q := newTenantQuotas(0)
	for i := 0; i < 8; i++ {
		release, err := q.acquire("alice", 1000)
		if err != nil {
			t.Fatalf("acquire %d with quotas disabled: %v", i, err)
		}
		defer release()
	}
	st := q.stats()["alice"]
	if st.Requests != 8 || st.Rejections != 0 || st.InUse != 8000 {
		t.Errorf("disabled-quota stats = %+v", st)
	}
}

// TestTenantQuotaBoundedMap pins the cardinality defense: minting fresh
// tenant names beyond maxTrackedTenants spills into one overflow bucket
// instead of growing the map without bound.
func TestTenantQuotaBoundedMap(t *testing.T) {
	q := newTenantQuotas(4)
	for i := 0; i < maxTrackedTenants+64; i++ {
		release, err := q.acquire(fmt.Sprintf("tenant-%d", i), 1)
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		release()
	}
	stats := q.stats()
	if len(stats) > maxTrackedTenants+1 {
		t.Fatalf("%d tenants tracked, want at most %d plus the overflow bucket", len(stats), maxTrackedTenants)
	}
	over := stats[overflowTenant]
	if over.Requests != 64 {
		t.Errorf("overflow bucket saw %d requests, want 64", over.Requests)
	}
}

// TestTenantQuotaReleaseIdempotent releases the same grant twice and
// requires the accounting to stay consistent.
func TestTenantQuotaReleaseIdempotent(t *testing.T) {
	q := newTenantQuotas(2)
	release, err := q.acquire("alice", 2)
	if err != nil {
		t.Fatal(err)
	}
	release()
	release()
	if got := q.stats()["alice"].InUse; got != 0 {
		t.Errorf("InUse = %d after double release, want 0", got)
	}
	if _, err := q.acquire("alice", 2); err != nil {
		t.Errorf("re-acquire after release failed: %v", err)
	}
}
