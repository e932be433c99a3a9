package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mpass/internal/tenant"
)

// postAuth posts bytes with a tenant credential attached (X-API-Key, or
// Authorization: Bearer when bearer is set).
func postAuth(t *testing.T, url, key string, bearer bool, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if key != "" {
		if bearer {
			req.Header.Set("Authorization", "Bearer "+key)
		} else {
			req.Header.Set("X-API-Key", key)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func getAuthJSON(t *testing.T, url, key string, v any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
	return resp
}

func tenantTable(t *testing.T, tenants ...tenant.Tenant) *tenant.Table {
	t.Helper()
	return tenant.NewTable(tenants, time.Now())
}

// requireRetryAfter asserts the 429 contract: an integer Retry-After of at
// least one second, never 0 and never absent.
func requireRetryAfter(t *testing.T, resp *http.Response) {
	t.Helper()
	ra := resp.Header.Get("Retry-After")
	n, err := strconv.Atoi(ra)
	if err != nil || n < 1 {
		t.Fatalf("429 Retry-After = %q, want an integer >= 1", ra)
	}
}

// TestTenantRejectionsConsumeNothing is the admission-ordering contract:
// unauthenticated and over-quota requests are turned away before the body
// is read, so neither the batcher, the cache, nor the job pool sees them.
func TestTenantRejectionsConsumeNothing(t *testing.T) {
	tb := tenantTable(t,
		tenant.Tenant{Name: "acme", Key: "ka", RatePerSec: 0.001, Burst: 1},
	)
	_, ts := newTestServer(t, Config{Tenants: tb, Attack: stubAttack(1)})

	// Missing key, wrong key: 401 on both endpoints.
	for _, key := range []string{"", "wrong"} {
		resp, body := postAuth(t, ts.URL+"/v1/scan", key, false, []byte("sample"))
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("scan with key %q: status %d (%s), want 401", key, resp.StatusCode, body)
		}
		resp, _ = postAuth(t, ts.URL+"/v1/attack", key, false, []byte("sample"))
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("attack with key %q: status %d, want 401", key, resp.StatusCode)
		}
	}

	// Burn the single token, then draw the quota rejection.
	resp, body := postAuth(t, ts.URL+"/v1/scan", "ka", false, []byte("sample"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first authenticated scan: status %d (%s)", resp.StatusCode, body)
	}
	resp, _ = postAuth(t, ts.URL+"/v1/scan", "ka", false, []byte("other sample"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota scan: status %d, want 429", resp.StatusCode)
	}
	requireRetryAfter(t, resp)

	// The one admitted scan is the only thing the pipeline ever saw.
	var m MetricsDoc
	getJSON(t, ts.URL+"/metrics", &m)
	if m.ScanRequests.Load() != 1 || m.CacheMisses.Load() != 1 || m.BatchedRaws.Load() != 1 {
		t.Fatalf("pipeline saw scan_requests=%d cache_misses=%d batched_raws=%d, want 1/1/1 — rejections leaked in",
			m.ScanRequests.Load(), m.CacheMisses.Load(), m.BatchedRaws.Load())
	}
	if m.AttackRequests.Load() != 0 || m.JobsRegistry.Load() != 0 {
		t.Fatalf("attack_requests=%d jobs_registry=%d after rejected attacks, want 0/0",
			m.AttackRequests.Load(), m.JobsRegistry.Load())
	}
	if m.TenantUnauthenticated.Load() != 4 || m.TenantRejected.Load() != 1 {
		t.Fatalf("tenant_unauthenticated=%d tenant_rejected=%d, want 4/1",
			m.TenantUnauthenticated.Load(), m.TenantRejected.Load())
	}
}

// TestTenantBearerAuth: the Authorization: Bearer form of the credential
// admits just like X-API-Key.
func TestTenantBearerAuth(t *testing.T) {
	tb := tenantTable(t, tenant.Tenant{Name: "acme", Key: "ka"})
	_, ts := newTestServer(t, Config{Tenants: tb})
	resp, body := postAuth(t, ts.URL+"/v1/scan", "ka", true, []byte("sample"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bearer scan: status %d (%s)", resp.StatusCode, body)
	}
}

// TestTenantFairnessUnderContention is the noisy-neighbor drill: tenant
// "noisy" saturates its own budget from many goroutines while tenant
// "good" keeps scanning — every one of good's requests must be admitted
// (the noisy tenant burned only its own bucket, never the shared
// pipeline), and every rejection noisy receives must carry a usable
// Retry-After.
func TestTenantFairnessUnderContention(t *testing.T) {
	tb := tenantTable(t,
		tenant.Tenant{Name: "good", Key: "kg", RatePerSec: 1e6, Burst: 1e6},
		tenant.Tenant{Name: "noisy", Key: "kn", RatePerSec: 0.001, Burst: 3, MaxInFlight: 2},
	)
	_, ts := newTestServer(t, Config{Tenants: tb})

	const perTenant = 40
	var wg sync.WaitGroup
	var noisyShed, noisyOK, goodOK, goodOther int64
	var mu sync.Mutex
	for i := 0; i < perTenant; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			resp, _ := postAuth(t, ts.URL+"/v1/scan", "kn", false, []byte(fmt.Sprintf("noisy sample %d", i)))
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusTooManyRequests:
				noisyShed++
				ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
				if err != nil || ra < 1 {
					t.Errorf("noisy 429 Retry-After = %q, want integer >= 1", resp.Header.Get("Retry-After"))
				}
			case http.StatusOK:
				noisyOK++
			default:
				t.Errorf("noisy scan: unexpected status %d", resp.StatusCode)
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			resp, _ := postAuth(t, ts.URL+"/v1/scan", "kg", false, []byte(fmt.Sprintf("good sample %d", i)))
			mu.Lock()
			defer mu.Unlock()
			if resp.StatusCode == http.StatusOK {
				goodOK++
			} else {
				goodOther++
			}
		}(i)
	}
	wg.Wait()

	if goodOK != perTenant || goodOther != 0 {
		t.Fatalf("good tenant: %d/%d admitted (%d rejected) — noisy neighbor leaked into good's admission",
			goodOK, perTenant, goodOther)
	}
	// Burst 3 with a ~zero refill: noisy lands at most a handful.
	if noisyOK > 3 {
		t.Fatalf("noisy tenant admitted %d scans on a burst-3 bucket", noisyOK)
	}
	if noisyShed == 0 {
		t.Fatal("noisy tenant was never shed; contention did not materialize")
	}

	// Per-tenant metrics kept the books per tenant.
	m := tb.Metrics()
	if m["good"].Scans.Load() != perTenant || m["good"].RateLimited.Load() != 0 {
		t.Fatalf("good tenant: %d scans and %d rate_limited, want %d and 0",
			m["good"].Scans.Load(), m["good"].RateLimited.Load(), perTenant)
	}
	if got := m["noisy"].RateLimited.Load() + m["noisy"].Saturated.Load(); got != noisyShed {
		t.Fatalf("noisy rejections in metrics = %d, observed %d", got, noisyShed)
	}
}

// TestTenantReloadEndpoint drills POST /v1/tenants/reload: admin keys
// may trigger it, plain resident keys get 403, anonymous callers 401, a
// key rotation takes effect atomically, and a broken allowlist leaves
// the old one serving (422).
func TestTenantReloadEndpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	write := func(doc string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(`{"tenants":[{"name":"ops","key":"kops","admin":true},{"name":"acme","key":"ka"}]}`)
	tb, err := tenant.LoadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Tenants: tb})

	resp, _ := postAuth(t, ts.URL+"/v1/tenants/reload", "", false, nil)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("anonymous reload: status %d, want 401", resp.StatusCode)
	}
	// A resident customer key authenticates but is not an operator.
	resp, _ = postAuth(t, ts.URL+"/v1/tenants/reload", "ka", false, nil)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("customer-key reload: status %d, want 403", resp.StatusCode)
	}
	if got := s.metrics.TenantReloads.Load(); got != 0 {
		t.Fatalf("tenant_reloads = %d after rejected attempts, want 0", got)
	}

	// Rotate the admin key on disk; the old key triggers the reload that
	// retires it.
	write(`{"tenants":[{"name":"ops","key":"kops-rotated","admin":true},{"name":"acme","key":"ka"}]}`)
	var out map[string]int
	resp, body := postAuth(t, ts.URL+"/v1/tenants/reload", "kops", false, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d (%s)", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil || out["tenants"] != 2 {
		t.Fatalf("reload response %s (err %v), want {\"tenants\": 2}", body, err)
	}
	if resp, _ := postAuth(t, ts.URL+"/v1/scan", "kops", false, []byte("x")); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("rotated-out key scan: status %d, want 401", resp.StatusCode)
	}
	if resp, _ := postAuth(t, ts.URL+"/v1/scan", "kops-rotated", false, []byte("x")); resp.StatusCode != http.StatusOK {
		t.Fatalf("rotated-in key scan: status %d, want 200", resp.StatusCode)
	}
	if got := s.metrics.TenantReloads.Load(); got != 1 {
		t.Fatalf("tenant_reloads = %d, want 1", got)
	}

	// A broken file answers 422 and leaves the current allowlist serving.
	write(`{"tenants":[]}`)
	resp, _ = postAuth(t, ts.URL+"/v1/tenants/reload", "kops-rotated", false, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("broken reload: status %d, want 422", resp.StatusCode)
	}
	if resp, _ := postAuth(t, ts.URL+"/v1/scan", "kops-rotated", false, []byte("y")); resp.StatusCode != http.StatusOK {
		t.Fatalf("scan after failed reload: status %d — failed reload clobbered the table", resp.StatusCode)
	}
}

// TestTenantReloadUnconfigured: without an allowlist the endpoint is 501,
// not a nil-pointer panic.
func TestTenantReloadUnconfigured(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := postAuth(t, ts.URL+"/v1/tenants/reload", "anything", false, nil)
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("reload without allowlist: status %d, want 501", resp.StatusCode)
	}
}

// TestTenantJobAttribution: attack jobs record the submitting tenant in
// the job view, and job polls authenticate without burning quota.
func TestTenantJobAttribution(t *testing.T) {
	tb := tenantTable(t, tenant.Tenant{Name: "acme", Key: "ka", RatePerSec: 1, Burst: 1})
	_, ts := newTestServer(t, Config{Tenants: tb, Attack: stubAttack(1), Seed: 7})

	resp, body := postAuth(t, ts.URL+"/v1/attack?target=B", "ka", false, []byte("victim"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("attack: status %d (%s)", resp.StatusCode, body)
	}
	var ar attackResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}

	// Poll anonymously: 401. Poll with the key: fine — and the bucket
	// (burst 1, already spent on the submit) must not be charged.
	if resp := getAuthJSON(t, ts.URL+ar.Poll, "", nil); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("anonymous job poll: status %d, want 401", resp.StatusCode)
	}
	var v JobView
	deadline := time.Now().Add(10 * time.Second)
	for {
		if resp := getAuthJSON(t, ts.URL+ar.Poll, "ka", &v); resp.StatusCode != http.StatusOK {
			t.Fatalf("job poll: status %d", resp.StatusCode)
		}
		if v.State == JobDone || v.State == JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v.Tenant != "acme" {
		t.Fatalf("job view tenant = %q, want acme", v.Tenant)
	}
	if m := tb.Metrics()["acme"]; m.Attacks.Load() != 1 || m.Admitted.Load() != 1 {
		t.Fatalf("tenant metrics: %d attacks / %d admitted, want 1/1 (polls must not charge quota)",
			m.Attacks.Load(), m.Admitted.Load())
	}
}

// TestTenantJobIsolation: a job is visible only to its submitting
// tenant. Job IDs are sequential and enumerable, so a foreign tenant's
// poll must answer 404 — shaped exactly like a truly unknown ID, or the
// response alone would confirm the guessed ID — while the submitter
// keeps reading its own job, AE bytes included.
func TestTenantJobIsolation(t *testing.T) {
	tb := tenantTable(t,
		tenant.Tenant{Name: "acme", Key: "ka"},
		tenant.Tenant{Name: "mallory", Key: "km"},
	)
	_, ts := newTestServer(t, Config{Tenants: tb, Attack: stubAttack(1), Seed: 7})

	resp, body := postAuth(t, ts.URL+"/v1/attack?target=B", "ka", false, []byte("victim"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("attack: status %d (%s)", resp.StatusCode, body)
	}
	var ar attackResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	jobID := strings.TrimPrefix(ar.Poll, "/v1/jobs/")

	get := func(key, path string) (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			req.Header.Set("X-API-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.String()
	}

	// The submitter reads its own job, with and without the AE bytes.
	for _, q := range []string{"", "?ae=1"} {
		if resp, body := get("ka", ar.Poll+q); resp.StatusCode != http.StatusOK {
			t.Fatalf("owner poll %q: status %d (%s)", q, resp.StatusCode, body)
		}
	}

	// The foreign tenant's poll of the live ID and its poll of a
	// never-issued ID must be the same response, modulo the echoed ID.
	respForeign, bodyForeign := get("km", ar.Poll+"?ae=1")
	if respForeign.StatusCode != http.StatusNotFound {
		t.Fatalf("foreign poll: status %d (%s), want 404", respForeign.StatusCode, bodyForeign)
	}
	respGhost, bodyGhost := get("km", "/v1/jobs/ghost?ae=1")
	if respGhost.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost poll: status %d, want 404", respGhost.StatusCode)
	}
	if want := strings.Replace(bodyGhost, `ghost`, jobID, 1); bodyForeign != want {
		t.Fatalf("foreign 404 body %q differs from unknown-ID 404 %q — existence leaked", bodyForeign, want)
	}
}

// TestTenantMetricsExposure: /metrics carries the per-tenant counter map
// with a scan-latency histogram that really observed the tenant's scans.
func TestTenantMetricsExposure(t *testing.T) {
	tb := tenantTable(t, tenant.Tenant{Name: "acme", Key: "ka"})
	_, ts := newTestServer(t, Config{Tenants: tb})

	for i := 0; i < 3; i++ {
		resp, _ := postAuth(t, ts.URL+"/v1/scan", "ka", false, []byte(fmt.Sprintf("sample %d", i)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scan %d: status %d", i, resp.StatusCode)
		}
	}

	var m MetricsDoc
	getJSON(t, ts.URL+"/metrics", &m)
	ten, ok := m.Tenants["acme"]
	if !ok {
		t.Fatalf("/metrics tenants map lacks acme: %v", m.Tenants)
	}
	if ten.Scans.Load() != 3 || ten.Admitted.Load() != 3 {
		t.Fatalf("acme scans/admitted = %d/%d, want 3/3", ten.Scans.Load(), ten.Admitted.Load())
	}
	if ten.ScanLatency.Count() != 3 {
		t.Fatalf("acme latency count = %d, want 3", ten.ScanLatency.Count())
	}
	if ten.InFlight.Load() != 0 {
		t.Fatalf("acme in_flight = %d after responses completed, want 0", ten.InFlight.Load())
	}
}
