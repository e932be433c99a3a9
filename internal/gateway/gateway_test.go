package gateway

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mpass/internal/core"
	"mpass/internal/detect"
	"mpass/internal/faultinject"
	"mpass/internal/server"
)

// stubDetector is a deterministic, training-free detector so a whole fleet
// of real server.Server replicas boots in microseconds.
type stubDetector struct {
	name string
	thr  float64
}

func (d *stubDetector) Name() string { return d.name }
func (d *stubDetector) Score(raw []byte) float64 {
	sum := sha256.Sum256(raw)
	return float64(sum[0]) / 255
}
func (d *stubDetector) Label(raw []byte) bool      { return d.Score(raw) > d.thr }
func (d *stubDetector) DecisionThreshold() float64 { return d.thr }

// stubAttack is a fast AttackFunc: one oracle query, terminal result.
func stubAttack() server.AttackFunc {
	return func(ctx context.Context, target detect.Detector, original []byte, oracle core.Oracle, seed int64) (*core.Result, error) {
		if _, err := core.QueryOracle(ctx, oracle, original); err != nil {
			return nil, err
		}
		return &core.Result{Success: false, Queries: 1, Rounds: 1}, nil
	}
}

// fleet is a gateway fronting n real in-process replicas.
type fleet struct {
	gw      *Gateway
	gwTS    *httptest.Server
	servers []*server.Server
	ts      []*httptest.Server
	names   []string
}

// newFleet boots n replicas (real server.Server instances on stub
// detectors) and a gateway over them. gcfg.Replicas is filled in here.
func newFleet(t *testing.T, n int, gcfg Config) *fleet {
	t.Helper()
	f := &fleet{}
	for i := 0; i < n; i++ {
		srv, err := server.New(server.Config{
			Detectors: []detect.Detector{
				&stubDetector{name: "A", thr: 0.5},
				&stubDetector{name: "B", thr: 0.2},
			},
			Attack:       stubAttack(),
			ModelVersion: "fleet-v1",
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

// scanDoc mirrors the replica scan response.
type scanDoc struct {
	SHA256  string `json:"sha256"`
	Cached  bool   `json:"cached"`
	Results []struct {
		Model string  `json:"model"`
		Score float64 `json:"score"`
	} `json:"results"`
}

func postScan(t *testing.T, base string, body []byte) (int, scanDoc) {
	t.Helper()
	resp, err := http.Post(base+"/v1/scan", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/scan: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var doc scanDoc
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("decoding scan response %q: %v", raw, err)
		}
	}
	return resp.StatusCode, doc
}

// sampleBodies builds n distinct deterministic uploads.
func sampleBodies(n, size int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		b := make([]byte, size)
		rng.Read(b)
		out[i] = b
	}
	return out
}

// TestGatewayShardAffineCaching: scanning every sample twice through the
// gateway must cost exactly one cache miss per sample fleet-wide — each
// key has one home replica, and the repeat hits that replica's hot cache.
// Scores relayed through the gateway equal direct detector calls.
func TestGatewayShardAffineCaching(t *testing.T) {
	const nSamples = 24
	f := newFleet(t, 3, Config{})
	samples := sampleBodies(nSamples, 512, 42)
	det := &stubDetector{name: "A", thr: 0.5}

	for round := 0; round < 2; round++ {
		for i, body := range samples {
			status, doc := postScan(t, f.gwTS.URL, body)
			if status != http.StatusOK {
				t.Fatalf("round %d sample %d: status %d", round, i, status)
			}
			sum := sha256.Sum256(body)
			if doc.SHA256 != hex.EncodeToString(sum[:]) {
				t.Fatalf("sample %d: gateway routed hash mismatch", i)
			}
			if got, want := doc.Results[0].Score, det.Score(body); got != want {
				t.Fatalf("sample %d: relayed score %v, direct %v", i, got, want)
			}
			if round == 1 && !doc.Cached {
				t.Errorf("sample %d: second scan missed the shard cache", i)
			}
		}
	}

	var hits, misses int64
	perReplicaMisses := make([]int64, len(f.servers))
	for i, srv := range f.servers {
		m := srv.Metrics()
		hits += m.CacheHits.Load()
		misses += m.CacheMisses.Load()
		perReplicaMisses[i] = m.CacheMisses.Load()
	}
	if misses != nSamples {
		t.Fatalf("fleet cache misses = %d, want exactly %d (one per distinct sample): %v",
			misses, nSamples, perReplicaMisses)
	}
	if hits != nSamples {
		t.Fatalf("fleet cache hits = %d, want %d (every repeat hits its shard)", hits, nSamples)
	}
	if g := f.gw.Metrics().ScansRouted.Load(); g != 2*nSamples {
		t.Fatalf("scans_routed = %d, want %d", g, 2*nSamples)
	}
}

// TestGatewayJobNamespace: attack submits come back in the cluster job-ID
// namespace {replica}/{id}, and polling that ID through the gateway
// reaches the owning replica and a terminal state.
func TestGatewayJobNamespace(t *testing.T) {
	f := newFleet(t, 3, Config{})
	body := sampleBodies(1, 256, 7)[0]

	resp, err := http.Post(f.gwTS.URL+"/v1/attack", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/attack: %v", err)
	}
	var acc struct {
		ID   string `json:"id"`
		Poll string `json:"poll"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("attack status %d", resp.StatusCode)
	}
	repName, jobID, found := strings.Cut(acc.ID, "/")
	if !found {
		t.Fatalf("job id %q lacks the {replica}/{id} namespace", acc.ID)
	}
	if _, known := f.gw.byName[repName]; !known {
		t.Fatalf("job id %q names unknown replica %q", acc.ID, repName)
	}
	if !strings.HasPrefix(jobID, "job-") {
		t.Fatalf("job id %q: replica-local part %q unexpected", acc.ID, jobID)
	}
	if acc.Poll != "/v1/jobs/"+acc.ID {
		t.Fatalf("poll path %q does not match id %q", acc.Poll, acc.ID)
	}

	state := pollJob(t, f.gwTS.URL+acc.Poll, "", 10*time.Second)
	if state != "done" {
		t.Fatalf("job ended %q, want done", state)
	}
}

// pollJob polls a job URL, presenting key when non-empty, until a
// terminal state or the deadline.
func pollJob(t *testing.T, url, key string, wait time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(wait)
	for {
		resp := doAuth(t, http.MethodGet, url, key, false, nil)
		var v struct {
			State string `json:"state"`
		}
		err := json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decoding job view: %v", err)
		}
		if v.State == "done" || v.State == "failed" {
			return v.State
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", url, v.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// clusterHealth fetches and decodes the gateway's /healthz.
func clusterHealth(t *testing.T, base string) (int, ClusterHealth) {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var h ClusterHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decoding cluster health: %v", err)
	}
	return resp.StatusCode, h
}

// TestGatewayReplicaKillDrill is the re-shard drill: kill one replica out
// from under live traffic and require (a) every scan still succeeds — the
// dead shard's keys are retried exactly once on the surviving owner, never
// dropped silently; (b) the health checker converges to a degraded 2/3
// fleet and the ring re-shards; (c) keys owned by survivors never move;
// (d) completed jobs on surviving replicas stay pollable, and polls for
// the dead replica's jobs fail loudly.
func TestGatewayReplicaKillDrill(t *testing.T) {
	const nSamples = 30
	f := newFleet(t, 3, Config{})
	samples := sampleBodies(nSamples, 512, 99)

	// Warm every shard and record pre-kill placement.
	ringBefore := f.gw.ring.Load()
	ownersBefore := make([]int, nSamples)
	for i, body := range samples {
		if status, _ := postScan(t, f.gwTS.URL, body); status != http.StatusOK {
			t.Fatalf("warm scan %d: status %d", i, status)
		}
		ownersBefore[i] = ringBefore.owner(keyOf(sha256.Sum256(body)))
	}

	// A completed job on a replica we will NOT kill.
	body := samples[0]
	resp, err := http.Post(f.gwTS.URL+"/v1/attack", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var acc struct {
		ID   string `json:"id"`
		Poll string `json:"poll"`
	}
	json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if pollJob(t, f.gwTS.URL+acc.Poll, "", 10*time.Second) != "done" {
		t.Fatal("pre-kill job did not complete")
	}
	jobReplica, _, _ := strings.Cut(acc.ID, "/")

	// Kill a replica that owns part of the keyspace but not the job.
	victim := -1
	for i, name := range f.names {
		if name == jobReplica {
			continue
		}
		for _, o := range ownersBefore {
			if o == i {
				victim = i
				break
			}
		}
		if victim >= 0 {
			break
		}
	}
	if victim < 0 {
		t.Fatal("no replica owns keys outside the job replica; enlarge the sample set")
	}
	victimKeys := 0
	for _, o := range ownersBefore {
		if o == victim {
			victimKeys++
		}
	}
	f.ts[victim].Close() // connections refused from here on

	// Scans succeed throughout: dead-shard keys are retried once onto the
	// surviving owner; nothing is dropped.
	for i, body := range samples {
		status, _ := postScan(t, f.gwTS.URL, body)
		if status != http.StatusOK {
			t.Fatalf("post-kill scan %d: status %d (owner was %d, victim %d)",
				i, status, ownersBefore[i], victim)
		}
	}
	gm := f.gw.Metrics()
	if gm.ScansFailed.Load() != 0 {
		t.Fatalf("scans_failed = %d after the drill, want 0", gm.ScansFailed.Load())
	}
	if retries := gm.ScanRetries.Load(); retries < 1 || retries > int64(victimKeys) {
		t.Fatalf("scan_retries = %d, want in [1, %d] (victim owned %d keys)",
			retries, victimKeys, victimKeys)
	}

	// Convergence: the prober marks the victim down, healthz reports 2/3.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, h := clusterHealth(t, f.gwTS.URL)
		if h.Healthy == 2 {
			if code != http.StatusOK || h.Status != "degraded" {
				t.Fatalf("degraded fleet: code %d status %q", code, h.Status)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway never converged to 2 healthy replicas: %+v", h)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Re-shard moved only the victim's arcs: surviving owners are stable.
	ringAfter := f.gw.ring.Load()
	for i, body := range samples {
		after := ringAfter.owner(keyOf(sha256.Sum256(body)))
		if after == victim {
			t.Fatalf("sample %d still routed to the dead replica", i)
		}
		if ownersBefore[i] != victim && after != ownersBefore[i] {
			t.Fatalf("sample %d moved from surviving replica %d to %d", i, ownersBefore[i], after)
		}
	}

	// Completed work on survivors is not lost; the dead replica's jobs
	// fail loudly, never silently.
	if state := pollJob(t, f.gwTS.URL+acc.Poll, "", 5*time.Second); state != "done" {
		t.Fatalf("completed job lost after re-shard: state %q", state)
	}
	lost, err := http.Get(f.gwTS.URL + "/v1/jobs/" + f.names[victim] + "/job-000001")
	if err != nil {
		t.Fatal(err)
	}
	lostBody, _ := io.ReadAll(lost.Body)
	lost.Body.Close()
	if lost.StatusCode != http.StatusBadGateway {
		t.Fatalf("dead-replica job poll: status %d (%s), want 502", lost.StatusCode, lostBody)
	}
	if !strings.Contains(string(lostBody), "unreachable") {
		t.Fatalf("dead-replica job poll error is not explicit: %s", lostBody)
	}
}

// TestGatewayMetricsAggregation: the gateway /metrics document sums the
// fleet and exposes every per-replica snapshot.
func TestGatewayMetricsAggregation(t *testing.T) {
	const nSamples = 12
	f := newFleet(t, 3, Config{})
	for _, body := range sampleBodies(nSamples, 256, 5) {
		if status, _ := postScan(t, f.gwTS.URL, body); status != http.StatusOK {
			t.Fatalf("scan status %d", status)
		}
	}
	resp, err := http.Get(f.gwTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc ClusterMetrics
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if got := doc.Cluster.ScanRequests.Load(); got != nSamples {
		t.Fatalf("cluster scan_requests = %d, want %d", got, nSamples)
	}
	if len(doc.Replicas) != 3 {
		t.Fatalf("replicas = %d entries, want 3", len(doc.Replicas))
	}
	var sum int64
	for _, r := range doc.Replicas {
		if r.Metrics == nil {
			t.Fatalf("replica %s: no metrics snapshot (%s)", r.Name, r.Error)
		}
		sum += r.Metrics.ScanRequests.Load()
	}
	if sum != doc.Cluster.ScanRequests.Load() {
		t.Fatalf("cluster sum %d != Σ replicas %d", doc.Cluster.ScanRequests.Load(), sum)
	}
	if got := doc.Gateway.ScansRouted.Load(); got != nSamples {
		t.Fatalf("gateway scans_routed = %d, want %d", got, nSamples)
	}
	if doc.Gateway.ReplicasHealthy.Load() != 3 || doc.Gateway.ReplicasTotal.Load() != 3 {
		t.Fatalf("gateway gauges = %d/%d, want 3/3",
			doc.Gateway.ReplicasHealthy.Load(), doc.Gateway.ReplicasTotal.Load())
	}
	// The merged histogram carries every observed scan.
	if got := doc.Cluster.ScanLatency.Count(); got != nSamples {
		t.Fatalf("merged latency count = %d, want %d", got, nSamples)
	}
}

// TestGatewaySpooledUpload: a body larger than MaxBufferBytes is hashed
// incrementally while spooling to disk, routed by the resulting digest,
// and forwarded intact.
func TestGatewaySpooledUpload(t *testing.T) {
	f := newFleet(t, 2, Config{MaxBufferBytes: 1024})
	body := sampleBodies(1, 8000, 3)[0]
	status, doc := postScan(t, f.gwTS.URL, body)
	if status != http.StatusOK {
		t.Fatalf("spooled scan status %d", status)
	}
	sum := sha256.Sum256(body)
	if doc.SHA256 != hex.EncodeToString(sum[:]) {
		t.Fatalf("spooled scan hash mismatch: %s", doc.SHA256)
	}
	m := f.gw.Metrics()
	if m.ScansSpooled.Load() != 1 || m.SpooledBytes.Load() != int64(len(body)) {
		t.Fatalf("spool counters = %d scans / %d bytes, want 1 / %d",
			m.ScansSpooled.Load(), m.SpooledBytes.Load(), len(body))
	}
	// And the cap still applies to spooled bodies.
	f2 := newFleet(t, 1, Config{MaxBufferBytes: 1024, MaxBodyBytes: 4096})
	status, _ = postScan(t, f2.gwTS.URL, body)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap spooled scan status %d, want 413", status)
	}
}

// TestGatewayInjectedTransportFaults drives the gateway through
// faultinject.Transport: with every request failing deterministically the
// gateway answers loudly (503/502 — by then the fleet is marked down),
// and with injected latency only, traffic flows untouched.
func TestGatewayInjectedTransportFaults(t *testing.T) {
	// All-error: the very first scan marks the primary down, the retry
	// path finds the other replica, which also fails — 502, counted, loud.
	tr := faultinject.WrapTransport(nil, faultinject.TransportConfig{Seed: 1, ErrorRate: 1})
	f := newFleet(t, 2, Config{Transport: tr, HealthInterval: time.Hour})
	body := sampleBodies(1, 128, 11)[0]
	resp, err := http.Post(f.gwTS.URL+"/v1/scan", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway && resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-faulty fleet scan status %d (%s), want 502/503", resp.StatusCode, raw)
	}
	if !bytes.Contains(raw, []byte("error")) {
		t.Fatalf("faulted scan response not explicit: %s", raw)
	}
	if f.gw.Metrics().ScansFailed.Load()+f.gw.Metrics().ScanRetries.Load() == 0 {
		t.Fatal("injected transport faults left no trace in gateway metrics")
	}

	// Latency-only injection: deterministic delays, zero failures.
	ltr := faultinject.WrapTransport(nil, faultinject.TransportConfig{
		Seed: 2, LatencyRate: 1, Latency: 2 * time.Millisecond,
	})
	f2 := newFleet(t, 2, Config{Transport: ltr, HealthInterval: time.Hour})
	for i, b := range sampleBodies(6, 128, 13) {
		if status, _ := postScan(t, f2.gwTS.URL, b); status != http.StatusOK {
			t.Fatalf("latency-injected scan %d: status %d", i, status)
		}
	}
	if f2.gw.Metrics().ScansFailed.Load() != 0 {
		t.Fatal("latency injection caused failures")
	}
	if ltr.Stats().Delays == 0 {
		t.Fatal("latency injection never fired")
	}
}

// TestGatewayClusterBackpressure uses fake always-shedding replicas: the
// gateway relays the 429 but rewrites Retry-After from the fleet's summed
// backlog — the cluster-level estimator.
func TestGatewayClusterBackpressure(t *testing.T) {
	mkReplica := func(scanQueue int) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(server.HealthStatus{
				Status: "ok", ModelVersion: "fake-v1", ScanQueue: scanQueue, ScanQueueCap: 256,
			})
		})
		mux.HandleFunc("POST /v1/scan", func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"scan queue full"}`)
		})
		return httptest.NewServer(mux)
	}
	r1, r2 := mkReplica(100), mkReplica(50)
	defer r1.Close()
	defer r2.Close()

	gw, err := New(Config{
		Replicas: []string{
			strings.TrimPrefix(r1.URL, "http://"),
			strings.TrimPrefix(r2.URL, "http://"),
		},
		HealthInterval: 20 * time.Millisecond,
	})
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

	// Wait until both replicas' backlogs have been probed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		scanQ, _ := gw.clusterBacklogs()
		if scanQ == 150 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("probed cluster backlog = %d, want 150", scanQ)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The estimator divides by uptime: within 1/151 s of start, one routed
	// scan still reads as a drain rate fast enough to clear the backlog in
	// a second. Let the gateway age past that before the shed.
	for time.Since(gw.started) < 100*time.Millisecond {
		time.Sleep(10 * time.Millisecond)
	}

	body := sampleBodies(1, 64, 17)[0]
	resp, err := http.Post(ts.URL+"/v1/scan", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed scan status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("cluster shed carries no Retry-After")
	}
	// Summed backlog of 150 against ~1 completed forward must stretch the
	// hint well past the single replica's hardcoded "1".
	if ra == "1" {
		t.Fatalf("Retry-After = %q: cluster estimator did not use the summed backlog", ra)
	}
	if gw.Metrics().ScansShed.Load() == 0 {
		t.Fatal("scans_shed not counted")
	}
}

// TestGatewayLeastLoadedPlacement uses fake replicas with asymmetric
// probed load: attack submits must land on the idle one.
func TestGatewayLeastLoadedPlacement(t *testing.T) {
	mkReplica := func(pending int, hits *int64) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(server.HealthStatus{
				Status: "ok", ModelVersion: "fake-v1", JobsPending: pending,
			})
		})
		mux.HandleFunc("POST /v1/attack", func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			*hits++
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, `{"id":"job-%06d","target":"A","poll":"/v1/jobs/job-%06d"}`, *hits, *hits)
		})
		return httptest.NewServer(mux)
	}
	var busyHits, idleHits int64
	busy, idle := mkReplica(100, &busyHits), mkReplica(0, &idleHits)
	defer busy.Close()
	defer idle.Close()

	gw, err := New(Config{
		Replicas: []string{
			strings.TrimPrefix(busy.URL, "http://"),
			strings.TrimPrefix(idle.URL, "http://"),
		},
		HealthInterval: 20 * time.Millisecond,
	})
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

	// Wait for the load gauges to be probed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if gw.replicas[0].load() == 100 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("busy replica's load never probed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	body := sampleBodies(1, 64, 23)[0]
	for i := 0; i < 5; i++ {
		resp, err := http.Post(ts.URL+"/v1/attack", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("attack %d: status %d", i, resp.StatusCode)
		}
	}
	if busyHits != 0 || idleHits != 5 {
		t.Fatalf("placement = busy %d / idle %d, want 0 / 5", busyHits, idleHits)
	}
}

// TestGatewayDrain: once closed, the gateway sheds new work with 503 and
// reports draining on /healthz.
func TestGatewayDrain(t *testing.T) {
	f := newFleet(t, 1, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.gw.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	body := sampleBodies(1, 64, 29)[0]
	status, _ := postScan(t, f.gwTS.URL, body)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain scan status %d, want 503", status)
	}
	code, _ := clusterHealth(t, f.gwTS.URL)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz %d, want 503", code)
	}
}
