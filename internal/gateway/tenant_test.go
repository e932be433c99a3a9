package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"mpass/internal/server"
	"mpass/internal/tenant"
)

// newTenantFleet is newFleet with a tenant allowlist on every replica:
// each replica owns an independent table built from the same tenant list,
// exactly as separate mpassd processes sharing one allowlist file would.
func newTenantFleet(t *testing.T, n int, gcfg Config, tenants []tenant.Tenant) *fleet {
	t.Helper()
	f := &fleet{}
	for i := 0; i < n; i++ {
		srv, err := server.New(server.Config{
			Registry: fleetRegistry(t),
			Attack:   stubAttack(),
			Tenants:  tenant.NewTable(tenants, time.Now()),
		})
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		ts := httptest.NewServer(srv.Handler())
		f.servers = append(f.servers, srv)
		f.ts = append(f.ts, ts)
		f.names = append(f.names, strings.TrimPrefix(ts.URL, "http://"))
	}
	gcfg.Replicas = f.names
	if gcfg.HealthInterval == 0 {
		gcfg.HealthInterval = 50 * time.Millisecond
	}
	gw, err := New(gcfg)
	if err != nil {
		t.Fatalf("gateway New: %v", err)
	}
	f.gw = gw
	f.gwTS = httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		f.gwTS.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		gw.Close(ctx)
		for i, ts := range f.ts {
			ts.Close()
			sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
			f.servers[i].Shutdown(sctx)
			scancel()
		}
	})
	return f
}

// doAuth sends one request through the gateway with an optional credential.
func doAuth(t *testing.T, method, url, key string, bearer bool, body []byte) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		if bearer {
			req.Header.Set("Authorization", "Bearer "+key)
		} else {
			req.Header.Set("X-API-Key", key)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	return resp
}

// TestGatewayForwardsTenantCredential: the gateway relays the client's
// credential on every proxied hop — scan, attack submit, job poll — and
// relays the replicas' 401/429 verdicts verbatim. The gateway itself never
// authenticates.
func TestGatewayForwardsTenantCredential(t *testing.T) {
	f := newTenantFleet(t, 2, Config{}, []tenant.Tenant{
		{Name: "acme", Key: "acme-key"},
	})

	// Anonymous scan: the replica's 401 comes back through the gateway.
	resp := doAuth(t, http.MethodPost, f.gwTS.URL+"/v1/scan", "", false, []byte("sample"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("anonymous scan via gateway: status %d, want 401", resp.StatusCode)
	}

	// Both credential forms pass through.
	for _, bearer := range []bool{false, true} {
		resp := doAuth(t, http.MethodPost, f.gwTS.URL+"/v1/scan", "acme-key", bearer,
			[]byte(fmt.Sprintf("sample bearer=%v", bearer)))
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("authed scan (bearer=%v): status %d (%s)", bearer, resp.StatusCode, body)
		}
	}

	// Attack submit carries the key; the cluster-namespaced poll does too.
	resp = doAuth(t, http.MethodPost, f.gwTS.URL+"/v1/attack?target=B", "acme-key", false, []byte("victim"))
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("authed attack via gateway: status %d (%s)", resp.StatusCode, body)
	}
	var acc attackAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if resp := doAuth(t, http.MethodGet, f.gwTS.URL+acc.Poll, "", false, nil); true {
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("anonymous job poll via gateway: status %d, want 401", resp.StatusCode)
		}
	}
	resp = doAuth(t, http.MethodGet, f.gwTS.URL+acc.Poll, "acme-key", false, nil)
	var view struct {
		Tenant string `json:"tenant"`
	}
	err := json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("authed job poll: status %d, err %v", resp.StatusCode, err)
	}
	if view.Tenant != "acme" {
		t.Fatalf("job view tenant through gateway = %q, want acme", view.Tenant)
	}
}

// TestGatewayRelaysQuotaRetryAfter: a tenant-quota 429 crosses the gateway
// with a Retry-After no shorter than the tenant's own bucket-refill wait —
// the cluster drain hint must not shadow a longer per-tenant wait.
func TestGatewayRelaysQuotaRetryAfter(t *testing.T) {
	f := newTenantFleet(t, 2, Config{}, []tenant.Tenant{
		// One token, then a 20s refill: the replica's hint must survive.
		{Name: "slow", Key: "slow-key", RatePerSec: 0.05, Burst: 1},
	})
	shed := 0
	for i := 0; i < 2; i++ {
		// Identical bytes route to one replica; its bucket drains on the
		// first admit.
		resp := doAuth(t, http.MethodPost, f.gwTS.URL+"/v1/scan", "slow-key", false, []byte("pinned sample"))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			shed++
			ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || ra < 1 {
				t.Fatalf("gateway 429 Retry-After = %q, want integer >= 1", resp.Header.Get("Retry-After"))
			}
			// 1 token / 0.05 per sec → the bucket hint is ~20s; the cluster
			// drain hint would be ~1s. The larger one must win.
			if ra < 10 {
				t.Fatalf("gateway 429 Retry-After = %d, want the tenant's ~20s refill hint, not the cluster drain hint", ra)
			}
		}
	}
	if shed != 1 {
		t.Fatalf("shed %d of 2 pinned scans, want exactly 1", shed)
	}
	if f.gw.Metrics().ScansShed.Load() != 1 {
		t.Fatalf("gateway scans_shed = %d, want 1", f.gw.Metrics().ScansShed.Load())
	}
}

// TestGatewayTenantFleetMetrics: the cluster /metrics document merges
// per-tenant counters across replicas — counts sum and the per-tenant
// latency histogram carries every scan the fleet served for that tenant.
func TestGatewayTenantFleetMetrics(t *testing.T) {
	f := newTenantFleet(t, 3, Config{}, []tenant.Tenant{
		{Name: "acme", Key: "acme-key"},
		{Name: "beta", Key: "beta-key"},
	})

	const acmeScans, betaScans = 12, 5
	for i := 0; i < acmeScans; i++ {
		resp := doAuth(t, http.MethodPost, f.gwTS.URL+"/v1/scan", "acme-key", false,
			[]byte(fmt.Sprintf("acme sample %d", i)))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("acme scan %d: status %d", i, resp.StatusCode)
		}
	}
	for i := 0; i < betaScans; i++ {
		resp := doAuth(t, http.MethodPost, f.gwTS.URL+"/v1/scan", "beta-key", false,
			[]byte(fmt.Sprintf("beta sample %d", i)))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("beta scan %d: status %d", i, resp.StatusCode)
		}
	}

	resp, err := http.Get(f.gwTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var doc ClusterMetrics
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	acme, ok := doc.Cluster.Tenants["acme"]
	if !ok {
		t.Fatalf("cluster tenants map lacks acme: %v", doc.Cluster.Tenants)
	}
	if acme.Scans.Load() != acmeScans || acme.Admitted.Load() != acmeScans {
		t.Fatalf("merged acme scans/admitted = %d/%d, want %d", acme.Scans.Load(), acme.Admitted.Load(), acmeScans)
	}
	if acme.ScanLatency.Count() != acmeScans {
		t.Fatalf("merged acme latency count = %d, want %d", acme.ScanLatency.Count(), acmeScans)
	}
	if beta := doc.Cluster.Tenants["beta"]; beta.Scans.Load() != betaScans {
		t.Fatalf("merged beta scans = %d, want %d", beta.Scans.Load(), betaScans)
	}

	// The distinct bodies spread over the ring: more than one replica must
	// have contributed to the merged acme count, proving a real merge
	// rather than a single replica's passthrough.
	contributing := 0
	for _, rm := range doc.Replicas {
		if rm.Metrics != nil && rm.Metrics.Tenants["acme"].Scans.Load() > 0 {
			contributing++
		}
	}
	if contributing < 2 {
		t.Fatalf("acme scans landed on %d replica(s); the merge was never exercised", contributing)
	}
}

// countSpoolFiles counts leftover gateway spool files in dir.
func countSpoolFiles(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.Contains(e.Name(), ".spool") {
			n++
		}
	}
	return n
}

// deadAddr returns a host:port that refuses connections.
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// spoolGateway builds a gateway over arbitrary replica addresses with a
// private spool dir and a tiny buffer, so every test body spools to disk.
func spoolGateway(t *testing.T, cfg Config, replicas ...string) (*Gateway, *httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	cfg.Replicas = replicas
	cfg.SpoolDir = dir
	cfg.MaxBufferBytes = 512
	if cfg.HealthInterval == 0 {
		// Keep the prober quiet: one immediate probe cannot cross the
		// default FailAfter=2 ladder, so health state stays as the request
		// path leaves it.
		cfg.HealthInterval = time.Hour
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		gw.Close(ctx)
	})
	return gw, ts, dir
}

// spoolBody is comfortably over the 512-byte test buffer.
func spoolBody() []byte { return bytes.Repeat([]byte{0x42}, 4096) }

// TestSpoolCleanupOnSuccess: the happy path leaves no spool file behind.
func TestSpoolCleanupOnSuccess(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write([]byte(`{"ok":true}`))
	}))
	defer backend.Close()
	_, ts, dir := spoolGateway(t, Config{}, strings.TrimPrefix(backend.URL, "http://"))

	resp, err := http.Post(ts.URL+"/v1/scan", "application/octet-stream", bytes.NewReader(spoolBody()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scan status %d", resp.StatusCode)
	}
	if n := countSpoolFiles(t, dir); n != 0 {
		t.Fatalf("%d spool file(s) leaked after a successful scan", n)
	}
}

// TestSpoolCleanupOnReplicaError: a replica 5xx is relayed and the spool
// file is still removed — the error path shares the deferred cleanup.
func TestSpoolCleanupOnReplicaError(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		http.Error(w, "replica exploded", http.StatusInternalServerError)
	}))
	defer backend.Close()
	_, ts, dir := spoolGateway(t, Config{}, strings.TrimPrefix(backend.URL, "http://"))

	for _, path := range []string{"/v1/scan", "/v1/attack"} {
		resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(spoolBody()))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("%s status %d, want relayed 500", path, resp.StatusCode)
		}
		if n := countSpoolFiles(t, dir); n != 0 {
			t.Fatalf("%s: %d spool file(s) leaked after a replica 5xx", path, n)
		}
	}
}

// TestSpoolCleanupOnRetry: the primary is unreachable, the retry replays
// the spooled body onto the survivor — and after both the successful retry
// and a fleet-wide failure, the spool dir is empty.
func TestSpoolCleanupOnRetry(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := io.Copy(io.Discard, r.Body)
		fmt.Fprintf(w, `{"bytes":%d}`, n)
	}))
	defer backend.Close()

	// Dead + live: whichever the ring owns first, every request ends on the
	// live replica with the full body, via at most one retry.
	_, ts, dir := spoolGateway(t, Config{},
		deadAddr(t), strings.TrimPrefix(backend.URL, "http://"))
	body := spoolBody()
	for i := 0; i < 4; i++ {
		// Distinct bodies walk different ring keys, so some hit the dead
		// primary and exercise the retry replay.
		resp, err := http.Post(ts.URL+"/v1/scan", "application/octet-stream",
			bytes.NewReader(append(body, byte(i))))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scan %d: status %d (%s)", i, resp.StatusCode, raw)
		}
		if want := fmt.Sprintf(`{"bytes":%d}`, len(body)+1); string(raw) != want {
			t.Fatalf("scan %d: replica saw %s, want %s — replay truncated", i, raw, want)
		}
	}
	if n := countSpoolFiles(t, dir); n != 0 {
		t.Fatalf("%d spool file(s) leaked across retry replays", n)
	}

	// All replicas dead: 502 after the retry, and still no leak.
	_, ts2, dir2 := spoolGateway(t, Config{}, deadAddr(t), deadAddr(t))
	resp, err := http.Post(ts2.URL+"/v1/scan", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway && resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead-fleet scan status %d, want 502/503", resp.StatusCode)
	}
	if n := countSpoolFiles(t, dir2); n != 0 {
		t.Fatalf("%d spool file(s) leaked after a dead-fleet 502", n)
	}
}

// TestSpoolCleanupOnClientDisconnect: the client walks away while the
// replica still holds the request; the handler unwinds through its
// deferred cleanup and the spool file goes with it.
func TestSpoolCleanupOnClientDisconnect(t *testing.T) {
	release := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		// Hold the in-flight request until the client's disconnect
		// propagates (or the test gives up).
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer backend.Close()
	defer close(release)
	_, ts, dir := spoolGateway(t, Config{}, strings.TrimPrefix(backend.URL, "http://"))

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/scan",
		bytes.NewReader(spoolBody()))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// The handler finishes asynchronously after the disconnect; poll
	// briefly for the deferred cleanup to land.
	deadline := time.Now().Add(5 * time.Second)
	for countSpoolFiles(t, dir) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d spool file(s) still present after client disconnect", countSpoolFiles(t, dir))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSpoolCleanupOnOversizeAndDrain: a 413 cleans up eagerly inside
// readPayload, and a draining gateway sheds before ever spooling.
func TestSpoolCleanupOnOversizeAndDrain(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write([]byte(`{}`))
	}))
	defer backend.Close()
	gw, ts, dir := spoolGateway(t, Config{MaxBodyBytes: 2048},
		strings.TrimPrefix(backend.URL, "http://"))

	resp, err := http.Post(ts.URL+"/v1/scan", "application/octet-stream", bytes.NewReader(spoolBody()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize status %d, want 413", resp.StatusCode)
	}
	if n := countSpoolFiles(t, dir); n != 0 {
		t.Fatalf("%d spool file(s) leaked after a 413", n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	gw.Close(ctx)
	resp, err = http.Post(ts.URL+"/v1/scan", "application/octet-stream",
		bytes.NewReader(bytes.Repeat([]byte{1}, 1024)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status %d, want 503", resp.StatusCode)
	}
	if n := countSpoolFiles(t, dir); n != 0 {
		t.Fatalf("%d spool file(s) leaked from a draining gateway", n)
	}
}
