package gateway

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mpass/internal/core"
	"mpass/internal/detect"
	"mpass/internal/engine"
	"mpass/internal/nn"
	"mpass/internal/server"
	"mpass/internal/tenant"
)

// The golden /metrics documents pin the wire shape of every serving
// counter: each test drives a fixed sequence of events through a real
// replica or gateway, decodes GET /metrics generically, and compares it
// key for key and value for value with testdata/. Run
// `go test ./internal/gateway -run Golden -update` to re-record.
var updateGolden = flag.Bool("update", false, "rewrite the golden /metrics documents in testdata/")

// checkGolden compares a decoded document with testdata/<name>.
func checkGolden(t *testing.T, name string, got any) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to record): %v", err)
	}
	var want any
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	// Round-trip got through JSON so both sides hold the same Go types.
	b, _ := json.Marshal(got)
	var norm any
	json.Unmarshal(b, &norm)
	if !reflect.DeepEqual(norm, want) {
		pretty, _ := json.MarshalIndent(norm, "", "  ")
		t.Fatalf("%s differs from the golden document; got:\n%s", path, pretty)
	}
}

// getDoc GETs url and decodes the JSON body generically.
func getDoc(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return doc
}

// stripLatency replaces the wall-clock-dependent parts of every
// scan_latency and batch_wait histogram in a live document — the mean and the bucket a
// scan landed in — with the facts that are deterministic: whether the mean
// is positive and that the buckets sum to the count.
func stripLatency(t *testing.T, v any) {
	t.Helper()
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			if h, ok := child.(map[string]any); ok && (k == "scan_latency" || k == "batch_wait") {
				var sum float64
				for _, c := range h["counts"].([]any) {
					sum += c.(float64)
				}
				if sum != h["count"].(float64) {
					t.Fatalf("histogram buckets sum to %v, count is %v", sum, h["count"])
				}
				h["counts"] = len(h["counts"].([]any))
				h["mean_ms"] = h["mean_ms"].(float64) > 0
				continue
			}
			stripLatency(t, child)
		}
	case []any:
		for _, child := range x {
			stripLatency(t, child)
		}
	}
}

// checkFleetSum asserts the cluster section is the fleet merge of the
// per-replica documents at every numeric leaf: counters and gauges sum,
// max_batch_size takes the max, bucket bounds agree, means re-derive from
// the merged numerators.
func checkFleetSum(t *testing.T, path string, cluster any, parts []any) {
	t.Helper()
	switch c := cluster.(type) {
	case map[string]any:
		for k, child := range c {
			var sub []any
			for _, p := range parts {
				if pm, ok := p.(map[string]any); ok && pm[k] != nil {
					sub = append(sub, pm[k])
				}
			}
			switch k {
			case "mean_batch_size":
				if b := c["batches"].(float64); b > 0 {
					want := c["batched_raws"].(float64) / b
					if math.Abs(child.(float64)-want) > 1e-12*want {
						t.Errorf("%s.mean_batch_size = %v, want %v", path, child, want)
					}
				}
			case "mean_ms":
				var num float64
				for _, p := range parts {
					pm := p.(map[string]any)
					num += pm["count"].(float64) * pm["mean_ms"].(float64)
				}
				if n := c["count"].(float64); n > 0 && math.Abs(child.(float64)-num/n) > 1e-9*num/n {
					t.Errorf("%s.mean_ms = %v, want %v", path, child, num/n)
				}
			case "buckets_ms":
				for _, s := range sub {
					if !reflect.DeepEqual(s, child) {
						t.Errorf("%s.buckets_ms differs across replicas", path)
					}
				}
			default:
				checkFleetSum(t, path+"."+k, child, sub)
			}
		}
	case []any:
		for i, child := range c {
			var sub []any
			for _, p := range parts {
				sub = append(sub, p.([]any)[i])
			}
			checkFleetSum(t, path, child, sub)
		}
	case float64:
		var want float64
		for _, p := range parts {
			if strings.HasSuffix(path, ".max_batch_size") {
				want = math.Max(want, p.(float64))
			} else {
				want += p.(float64)
			}
		}
		if c != want {
			t.Errorf("%s = %v, want %v over %d replicas", path, c, want, len(parts))
		}
	}
}

// send issues one request with an optional tenant key and returns the
// status and body.
func send(t *testing.T, method, url, key string, body []byte) (int, []byte) {
	t.Helper()
	resp := doAuth(t, method, url, key, false, body)
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

func expect(t *testing.T, what string, status, want int, body []byte) {
	t.Helper()
	if status != want {
		t.Fatalf("%s: status %d (%s), want %d", what, status, body, want)
	}
}

// waitJobsDone waits until the replica's /metrics counts n finished jobs.
// A job reads "done" as its task returns, a moment before the pool counts
// it, so a poll that saw "done" can still race a jobs_done read.
func waitJobsDone(t *testing.T, base string, n float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for getDoc(t, base+"/metrics")["jobs_done"].(float64) != n {
		if time.Now().After(deadline) {
			t.Fatalf("jobs_done never reached %v", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func pollURL(t *testing.T, body []byte) string {
	t.Helper()
	var acc attackAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	return acc.Poll
}

func serve(t *testing.T, srv *server.Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ts
}

// TestMetricsGoldenReplica: a single-tenant replica serving real conv
// engines through scans, a cache hit, a streamed upload, an attack shed,
// a model reload and a post-reload miss.
func TestMetricsGoldenReplica(t *testing.T) {
	mk := func(name string, seed int64) engine.Driver {
		net, err := nn.NewConvNet(nn.ConvConfig{SeqLen: 512, EmbedDim: 3, Kernel: 8, Stride: 4, Filters: 6, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		drv, err := engine.NewConvDriver(&detect.ConvDetector{ModelName: name, Net: net, Threshold: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		return drv
	}
	setA, err := engine.NewSet(mk("M", 1), mk("N", 2))
	if err != nil {
		t.Fatal(err)
	}
	setB, err := engine.NewSet(mk("M", 3), mk("N", 4))
	if err != nil {
		t.Fatal(err)
	}
	reg, err := engine.NewRegistry(setA)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	srv, err := server.New(server.Config{
		Registry:        reg,
		Reload:          func(string) (*engine.Set, error) { return setB, nil },
		StreamThreshold: 64,
		StreamChunk:     128,
		AttackWorkers:   1,
		AttackQueue:     1,
		Attack: func(ctx context.Context, _ detect.Detector, _ []byte, _ core.Oracle, _ int64) (*core.Result, error) {
			started <- struct{}{}
			<-release
			return &core.Result{Rounds: 1}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := serve(t, srv).URL

	small := sampleBodies(3, 48, 11) // under StreamThreshold: buffered
	for _, b := range [][]byte{small[0], small[0], small[1], small[2]} {
		st, body := send(t, http.MethodPost, base+"/v1/scan", "", b)
		expect(t, "scan", st, http.StatusOK, body)
	}
	st, body := send(t, http.MethodPost, base+"/v1/scan", "", sampleBodies(1, 4096, 12)[0])
	expect(t, "streamed scan", st, http.StatusOK, body)

	// One running job, one queued, the third shed.
	st, body = send(t, http.MethodPost, base+"/v1/attack", "", small[0])
	expect(t, "attack 1", st, http.StatusAccepted, body)
	poll1 := pollURL(t, body)
	<-started
	st, body = send(t, http.MethodPost, base+"/v1/attack", "", small[1])
	expect(t, "attack 2", st, http.StatusAccepted, body)
	poll2 := pollURL(t, body)
	st, body = send(t, http.MethodPost, base+"/v1/attack", "", small[2])
	expect(t, "attack 3", st, http.StatusTooManyRequests, body)
	close(release)
	pollJob(t, base+poll1, "", 10*time.Second)
	pollJob(t, base+poll2, "", 10*time.Second)
	waitJobsDone(t, base, 2)

	st, body = send(t, http.MethodPost, base+"/v1/models/reload", "", nil)
	expect(t, "reload", st, http.StatusOK, body)
	st, body = send(t, http.MethodPost, base+"/v1/scan", "", small[0])
	expect(t, "post-reload scan", st, http.StatusOK, body)

	doc := getDoc(t, base+"/metrics")
	stripLatency(t, doc)
	checkGolden(t, "metrics_replica.json", doc)
}

// goldenTenants is the allowlist behind the multi-tenant goldens: a
// roomy tenant, one whose bucket holds a single token, and an operator.
var goldenTenants = []tenant.Tenant{
	{Name: "acme", Key: "ka", RatePerSec: 1000, Burst: 100},
	{Name: "beta", Key: "kb", RatePerSec: 0.001, Burst: 1},
	{Name: "ops", Key: "ko", Admin: true},
}

// TestMetricsGoldenTenantReplica: a multi-tenant replica through
// unauthenticated requests, tenant scans and a cache hit, a rate-limited
// tenant, an attack job whose oracle query re-sends a scanned body (and
// still flushes a batch: oracle traffic never reads the cache) and an
// allowlist reload.
func TestMetricsGoldenTenantReplica(t *testing.T) {
	allowlist := filepath.Join(t.TempDir(), "tenants.json")
	b, _ := json.Marshal(map[string]any{"tenants": goldenTenants})
	if err := os.WriteFile(allowlist, b, 0o600); err != nil {
		t.Fatal(err)
	}
	tb, err := tenant.LoadTable(allowlist)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Detectors: []detect.Detector{&stubDetector{name: "A", thr: 0.5}, &stubDetector{name: "B", thr: 0.2}},
		Attack:    stubAttack(),
		Tenants:   tb,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := serve(t, srv).URL
	samples := sampleBodies(4, 256, 21)

	for _, key := range []string{"", "wrong"} {
		st, body := send(t, http.MethodPost, base+"/v1/scan", key, samples[0])
		expect(t, "unauthenticated scan", st, http.StatusUnauthorized, body)
	}
	for _, s := range [][]byte{samples[0], samples[0], samples[1]} {
		st, body := send(t, http.MethodPost, base+"/v1/scan", "ka", s)
		expect(t, "acme scan", st, http.StatusOK, body)
	}
	st, body := send(t, http.MethodPost, base+"/v1/scan", "kb", samples[2])
	expect(t, "beta scan", st, http.StatusOK, body)
	st, body = send(t, http.MethodPost, base+"/v1/scan", "kb", samples[3])
	expect(t, "beta over quota", st, http.StatusTooManyRequests, body)

	st, body = send(t, http.MethodPost, base+"/v1/attack", "ka", samples[1])
	expect(t, "acme attack", st, http.StatusAccepted, body)
	pollJob(t, base+pollURL(t, body), "ka", 10*time.Second)
	waitJobsDone(t, base, 1)

	st, body = send(t, http.MethodPost, base+"/v1/tenants/reload", "ko", nil)
	expect(t, "tenant reload", st, http.StatusOK, body)

	doc := getDoc(t, base+"/metrics")
	stripLatency(t, doc)
	checkGolden(t, "metrics_tenant_replica.json", doc)
}

// TestMetricsGoldenGateway: a gateway over two multi-tenant replicas
// through routed scans and repeats, an unauthenticated scan, a shed
// tenant, a spooled upload and one attack polled once after it finished.
// Which replica owns a key depends on the listeners' ports, so the
// per-replica documents are checked to merge into the cluster section
// instead of against the golden file.
func TestMetricsGoldenGateway(t *testing.T) {
	f := newTenantFleet(t, 2, Config{MaxBufferBytes: 1024}, goldenTenants[:2])
	base := f.gwTS.URL
	samples := sampleBodies(6, 256, 31)

	for round := 0; round < 2; round++ {
		for _, s := range samples {
			st, body := send(t, http.MethodPost, base+"/v1/scan", "ka", s)
			expect(t, "acme scan", st, http.StatusOK, body)
		}
	}
	st, body := send(t, http.MethodPost, base+"/v1/scan", "", samples[0])
	expect(t, "unauthenticated scan", st, http.StatusUnauthorized, body)
	st, body = send(t, http.MethodPost, base+"/v1/scan", "kb", samples[1])
	expect(t, "beta scan", st, http.StatusOK, body)
	// Each replica meters beta with its own bucket: resend the same body so
	// the ring homes it on the replica whose single token is spent.
	st, body = send(t, http.MethodPost, base+"/v1/scan", "kb", samples[1])
	expect(t, "beta over quota", st, http.StatusTooManyRequests, body)
	st, body = send(t, http.MethodPost, base+"/v1/scan", "ka", sampleBodies(1, 4000, 32)[0])
	expect(t, "spooled scan", st, http.StatusOK, body)

	// The job's oracle query bypasses the score cache, so the cache
	// counters count the scans above and nothing else.
	st, body = send(t, http.MethodPost, base+"/v1/attack", "ka", sampleBodies(1, 256, 33)[0])
	expect(t, "attack", st, http.StatusAccepted, body)
	poll := pollURL(t, body)
	// Wait on the replicas directly so the gateway sees exactly one poll.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var done float64
		for _, ts := range f.ts {
			done += getDoc(t, ts.URL+"/metrics")["jobs_done"].(float64)
		}
		if done == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("attack job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, body = send(t, http.MethodGet, base+poll, "ka", nil)
	expect(t, "job poll", st, http.StatusOK, body)

	doc := getDoc(t, base+"/metrics")
	var parts []any
	for _, r := range doc["replicas"].([]any) {
		rm := r.(map[string]any)
		if rm["metrics"] == nil {
			t.Fatalf("replica %v has no metrics: %v", rm["name"], rm["error"])
		}
		parts = append(parts, rm["metrics"])
	}
	checkFleetSum(t, "cluster", doc["cluster"], parts)
	stripLatency(t, doc)
	for _, r := range doc["replicas"].([]any) {
		rm := r.(map[string]any)
		rm["name"] = "replica"
		rm["metrics"] = "merged into cluster"
	}
	checkGolden(t, "metrics_gateway.json", doc)
}

// TestMetricsGoldenGatewayMerge pins the fleet merge bit for bit: two
// stand-in replicas serve recorded /metrics documents (one multi-tenant,
// one not, with different bucket spreads and max batch sizes), and the
// gateway's whole document — cluster sum, gateway counters, per-replica
// echo — must match the golden file exactly.
func TestMetricsGoldenGatewayMerge(t *testing.T) {
	var names []string
	for _, file := range []string{"replica_a.json", "replica_b.json"} {
		doc, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
			io.WriteString(w, `{"status":"ok"}`)
		})
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Write(doc)
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		names = append(names, strings.TrimPrefix(ts.URL, "http://"))
	}
	gw, err := New(Config{Replicas: names, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		gw.Close(ctx)
	})
	gwTS := httptest.NewServer(gw.Handler())
	t.Cleanup(gwTS.Close)

	doc := getDoc(t, gwTS.URL+"/metrics")
	for i, r := range doc["replicas"].([]any) {
		r.(map[string]any)["name"] = []string{"a", "b"}[i]
	}
	checkGolden(t, "metrics_gateway_merge.json", doc)
}
