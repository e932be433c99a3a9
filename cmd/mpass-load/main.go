// Command mpass-load drives a running mpassd with a concurrent scan burst
// (plus optional attack jobs) and reports serving throughput and latency.
// Stdout carries `go test -bench`-style lines so the existing cmd/benchjson
// flow can turn a run into a machine-readable report:
//
//	mpassd -addr 127.0.0.1:0 -addr-file /tmp/mpassd.addr &
//	mpass-load -addr "$(cat /tmp/mpassd.addr)" -clients 8 -requests 400 \
//	    | go run ./cmd/benchjson -out BENCH_3.json
//
// The tool doubles as the CI smoke driver (`make serve-smoke`): it refuses
// to start until /healthz answers ok, fails if any scan errors (429 sheds
// are counted separately — shedding is policy, not failure), and
// cross-checks /metrics against its own request count. With -faults it
// drives a fault-injecting server (`mpassd -fault-*`) instead: failed
// attack jobs are expected and reported alongside the retry/breaker/
// cancellation counters, but a job stuck outside a terminal state is still
// fatal — the lifecycle hardening must bound every job, faults or not.
//
// Reload runs (`make reload-smoke`): -reload N interleaves N POSTs to
// /v1/models/reload through the scan burst, so generations swap under
// sustained traffic. Every reload must swap cleanly (200, swapped=true),
// every scan must still succeed, each scan response must carry a model
// version the server actually served, and /healthz must agree with the last
// swap afterwards — the zero-downtime drill as a repeatable probe.
//
// Cluster runs (`make cluster-smoke`): -targets takes a comma-separated
// address list and stripes the burst across them round-robin, reporting
// per-target and aggregate throughput. -cluster marks the (single) target
// as an mpass-gateway and turns on the shard-affinity checks: the run's
// per-replica cache-hit ratio — computed from /metrics deltas, so earlier
// traffic does not launder the numbers — must reach -min-hit-ratio, and
// fleet-wide misses must stay near the distinct-sample count (each sample
// warms exactly one shard). -bench-name renames the benchmark line so one
// driver emits comparable BenchmarkClusterSingle/BenchmarkClusterGateway
// series for benchjson -gate.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpass/internal/corpus"
	"mpass/internal/gateway"
	"mpass/internal/parallel"
	"mpass/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mpass-load: ")

	addr := flag.String("addr", "127.0.0.1:8877", "mpassd address (host:port)")
	targets := flag.String("targets", "", "comma-separated addresses; the burst is striped across them round-robin (overrides -addr)")
	cluster := flag.Bool("cluster", false, "target is an mpass-gateway: read the cluster /metrics document and enforce the shard-affinity checks")
	minHitRatio := flag.Float64("min-hit-ratio", 0.9, "with -cluster: minimum per-replica cache-hit ratio over this run")
	benchName := flag.String("bench-name", "ServeScan", "benchmark line name (printed as Benchmark<name>)")
	clients := flag.Int("clients", 8, "concurrent scan clients")
	requests := flag.Int("requests", 400, "total scan requests")
	samples := flag.Int("samples", 32, "distinct samples in the request pool (repeats exercise the cache)")
	attacks := flag.Int("attacks", 0, "attack jobs to submit and poll to completion")
	faults := flag.Bool("faults", false, "fault-drill mode: the server runs with -fault-* injection, so failed attack jobs are expected; report the fault counters instead of treating failures as fatal")
	reloads := flag.Int("reload", 0, "model hot-reloads to interleave through the scan burst (0 disables); every swap must succeed and every scan must carry a served model version")
	seed := flag.Int64("seed", 1, "sample-pool generation seed")
	streamMB := flag.Int("stream-mb", 0, "also POST a chunked upload of this many MiB to exercise the O(chunk) streaming scan path (0 disables)")
	wait := flag.Duration("wait", 15*time.Second, "how long to wait for /healthz before giving up")
	apiKey := flag.String("api-key", "", "tenant API key sent as X-API-Key on every request (for servers running with -tenants)")
	scenarioPath := flag.String("scenario", "", "scenario JSON file: run the phased multi-tenant scenario instead of a single burst, exiting non-zero on any threshold violation")
	scenarioMaxP99 := flag.Duration("scenario-max-p99", 0, "override the scenario file's max_p99_ms threshold (0 keeps the file's value)")
	flag.Parse()
	if *clients < 1 || *requests < 1 || *samples < 1 {
		log.Fatal("clients, requests, and samples must all be >= 1")
	}
	addrs := []string{*addr}
	if *targets != "" {
		addrs = addrs[:0]
		for _, t := range strings.Split(*targets, ",") {
			if t = strings.TrimSpace(t); t != "" {
				addrs = append(addrs, t)
			}
		}
		if len(addrs) == 0 {
			log.Fatal("-targets given but empty")
		}
	}
	if *cluster && len(addrs) != 1 {
		log.Fatal("-cluster checks a single gateway target; use -targets for striping across plain replicas")
	}
	bases := make([]string, len(addrs))
	for i, a := range addrs {
		bases[i] = "http://" + a
	}
	base := bases[0]

	for _, b := range bases {
		if err := waitHealthy(b, *wait); err != nil {
			log.Fatal(err)
		}
	}

	if *scenarioPath != "" {
		if err := runScenario(base, *scenarioPath, *scenarioMaxP99); err != nil {
			log.Fatal(err)
		}
		return
	}

	// Cluster runs judge cache affinity on this run alone: snapshot the
	// fleet counters before the burst and diff afterwards.
	var pre *gateway.ClusterMetrics
	if *cluster {
		var err error
		if pre, err = fetchClusterMetrics(base); err != nil {
			log.Fatal(err)
		}
	}

	// The pool mixes malware and benign PEs from the same generator family
	// mpassd trains on, so scores span both sides of the thresholds.
	g := corpus.NewGenerator(*seed + 31000)
	pool := make([][]byte, *samples)
	for i := range pool {
		fam := corpus.Benign
		if i%2 == 0 {
			fam = corpus.Malware
		}
		pool[i] = g.Sample(fam).Raw
	}

	// Reload probe: swap model generations from inside the burst itself, and
	// audit every scan response's model version against the set of
	// generations the server has legitimately served.
	var rp *reloadProbe
	if *reloads > 0 {
		if len(bases) != 1 || *cluster {
			log.Fatal("-reload drives a single plain replica")
		}
		var err error
		if rp, err = newReloadProbe(base, *reloads, *requests); err != nil {
			log.Fatal(err)
		}
	}

	// The client burst is exactly the pool layer's shape: -clients workers
	// draining a shared request counter, each request writing its own
	// latency slot. Request i goes to target i%len(bases), so a multi-target
	// run stripes the same sample mix across the whole list.
	lat := make([]time.Duration, *requests)
	perOK := make([]atomic.Int64, len(bases))
	var ok, shed, failed atomic.Int64
	start := time.Now()
	parallel.ForEach(*clients, *requests, func(i int) {
		var version *string
		if rp != nil {
			rp.maybeReload(i)
			version = new(string)
		}
		t0 := time.Now()
		status, err := postScan(bases[i%len(bases)], pool[i%len(pool)], *apiKey, version)
		lat[i] = time.Since(t0)
		switch {
		case err != nil || status >= 500:
			failed.Add(1)
		case status == http.StatusTooManyRequests:
			shed.Add(1)
		case status == http.StatusOK:
			ok.Add(1)
			perOK[i%len(bases)].Add(1)
			if rp != nil {
				rp.sawVersion(*version)
			}
		default:
			failed.Add(1)
		}
	})
	elapsed := time.Since(start)

	if ok.Load() == 0 {
		log.Fatalf("no scan succeeded (%d shed, %d failed)", shed.Load(), failed.Load())
	}
	if failed.Load() > 0 {
		log.Fatalf("%d scans failed outright", failed.Load())
	}
	if rp != nil {
		if err := rp.verify(base); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "reloads: %d swaps under load · %d scan responses audited · final version %s\n",
			rp.issued, ok.Load(), rp.lastVer)
	}

	attacksDone, attacksFailed := 0, 0
	if *attacks > 0 {
		var err error
		if attacksDone, attacksFailed, err = runAttacks(base, pool, *attacks, *apiKey); err != nil {
			log.Fatal(err)
		}
		if attacksFailed > 0 && !*faults {
			log.Fatalf("%d attack jobs failed (run with -faults if the server injects faults)", attacksFailed)
		}
	}

	var streamed time.Duration
	if *streamMB > 0 {
		var err error
		if streamed, err = runStreamScan(base, int64(*streamMB)<<20, *apiKey); err != nil {
			log.Fatal(err)
		}
	}

	var snap *server.MetricsDoc
	var post *gateway.ClusterMetrics
	if *cluster {
		// The burst's HTTP responses are all in, but replica-side counters
		// may still be settling (batcher flushes, health probes mid-scrape),
		// and the per-replica snapshots are fetched non-atomically. Quiesce —
		// poll until two consecutive fleet snapshots agree — before diffing,
		// so the affinity gate below cannot flake on a half-settled read.
		var err error
		if post, err = quiesceCluster(base); err != nil {
			log.Fatal(err)
		}
		snap = &post.Cluster
	} else {
		// Merge the per-target documents the way the gateway merges its
		// fleet, so the cross-check below covers a striped run too.
		snap = &server.MetricsDoc{}
		for _, b := range bases {
			var m server.MetricsDoc
			if err := fetchMetrics(b, &m); err != nil {
				log.Fatal(err)
			}
			snap.Merge(&m)
		}
	}
	if got := snap.ScanRequests.Load(); got < int64(*requests) {
		log.Fatalf("/metrics scan_requests = %d, expected >= %d", got, *requests)
	}
	if *streamMB > 0 {
		// Cross-check: the large upload must have taken the streaming path,
		// and the server must have seen every byte of it.
		if snap.ScansStreamed.Load() < 1 {
			log.Fatalf("/metrics scans_streamed = %d after a %d MiB upload, expected >= 1",
				snap.ScansStreamed.Load(), *streamMB)
		}
		if want := int64(*streamMB) << 20; snap.StreamedBytes.Load() < want {
			log.Fatalf("/metrics streamed_bytes = %d, expected >= %d", snap.StreamedBytes.Load(), want)
		}
		fmt.Fprintf(os.Stderr, "streamed a %d MiB chunked upload in %v (scans_streamed=%d)\n",
			*streamMB, streamed.Round(time.Millisecond), snap.ScansStreamed.Load())
		fmt.Printf("BenchmarkServeScanStream 1 %d ns/op %d body-bytes\n",
			streamed.Nanoseconds(), int64(*streamMB)<<20)
	}

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p50, p99 := quantile(lat, 0.50), quantile(lat, 0.99)
	rps := float64(*requests) / elapsed.Seconds()
	nsPerOp := float64(elapsed.Nanoseconds()) / float64(*requests)

	fmt.Fprintf(os.Stderr,
		"%d scans in %v (%d ok, %d shed) · %.0f req/s · p50 %v p99 %v\n",
		*requests, elapsed.Round(time.Millisecond), ok.Load(), shed.Load(), rps,
		p50.Round(time.Microsecond), p99.Round(time.Microsecond))
	if len(bases) > 1 {
		// Per-target split of the same wall clock: the aggregate above is
		// the fleet number, these are each member's share of it.
		for i, a := range addrs {
			n := perOK[i].Load()
			fmt.Fprintf(os.Stderr, "  target %s: %d ok · %.0f req/s\n",
				a, n, float64(n)/elapsed.Seconds())
		}
	}
	fmt.Fprintf(os.Stderr,
		"server: %d batches (mean %.2f, max %d, %d coalesced) · %d cache hits · %d attack jobs done\n",
		snap.Batches.Load(), snap.MeanBatch, snap.MaxBatchSize.Load(), snap.Coalesced.Load(), snap.CacheHits.Load(), attacksDone)

	// With -cluster, enforce the shard-affinity contract on this run's
	// /metrics deltas and carry the ratio into the benchmark line.
	extra := ""
	if *cluster {
		hitRatio, err := checkCluster(os.Stderr, pre, post, int64(*samples), *minHitRatio)
		if err != nil {
			log.Fatal(err)
		}
		extra = fmt.Sprintf(" %.3f hit-ratio %d replicas", hitRatio, len(post.Replicas))
	}
	if rp != nil {
		extra += fmt.Sprintf(" %.0f reloads", float64(rp.issued))
	}

	// One benchmark line per run; extra (value, unit) pairs become benchjson
	// custom metrics.
	fmt.Printf("Benchmark%s %d %.0f ns/op %.1f req/s %d p50-ns %d p99-ns %.0f shed %.0f cache-hits %.2f mean-batch%s\n",
		*benchName, *requests, nsPerOp, rps, p50.Nanoseconds(), p99.Nanoseconds(),
		float64(shed.Load()), float64(snap.CacheHits.Load()), snap.MeanBatch, extra)

	if *faults {
		terminal := attacksDone + attacksFailed
		fmt.Fprintf(os.Stderr,
			"faults: %d attack jobs terminal (%d done, %d failed) · %d oracle queries, %d retries, %d breaker opens · %d jobs cancelled · registry %d",
			terminal, attacksDone, attacksFailed,
			snap.OracleQueries.Load(), snap.OracleRetries.Load(), snap.OracleBreaks.Load(),
			snap.JobsCancelled.Load(), snap.JobsRegistry.Load())
		if c := snap.JobsRegistryCap.Load(); c > 0 {
			fmt.Fprintf(os.Stderr, "/%d", c)
		}
		fmt.Fprintln(os.Stderr)
		fmt.Printf("BenchmarkServeFaults %d %.0f ns/op %.0f done %.0f failed %.0f oracle-retries %.0f oracle-breaks %.0f jobs-cancelled\n",
			terminal, nsPerOp,
			float64(attacksDone), float64(attacksFailed),
			float64(snap.OracleRetries.Load()), float64(snap.OracleBreaks.Load()), float64(snap.JobsCancelled.Load()))
	}
}

// waitHealthy polls /healthz until it answers 200 or the deadline passes.
func waitHealthy(base string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("server at %s never became healthy: %v", base, err)
			}
			return fmt.Errorf("server at %s never became healthy", base)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// postScan POSTs one scan, presenting key as X-API-Key when non-empty.
// When version is non-nil the response document is decoded and the
// generation stamp written through it (the reload audit); otherwise the
// body is discarded unparsed.
func postScan(base string, raw []byte, key string, version *string) (int, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/scan", bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if version != nil && resp.StatusCode == http.StatusOK {
		var doc struct {
			ModelVersion string `json:"model_version"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding scan response: %w", err)
		}
		*version = doc.ModelVersion
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// reloadProbe swaps model generations mid-burst and audits the fallout. It
// tracks the set of versions the server has legitimately served this run
// (the starting generation plus each swap's result) and the versions scan
// responses actually reported; verify reconciles the two after the burst.
type reloadProbe struct {
	base     string
	want     int
	interval int

	mu       sync.Mutex
	issued   int
	lastVer  string
	versions map[string]bool

	seen sync.Map // model version -> struct{}, from scan responses
}

func newReloadProbe(base string, n, requests int) (*reloadProbe, error) {
	initial, err := fetchModelVersion(base)
	if err != nil {
		return nil, fmt.Errorf("reload probe: %w", err)
	}
	interval := requests / (n + 1)
	if interval < 1 {
		interval = 1
	}
	return &reloadProbe{
		base:     base,
		want:     n,
		interval: interval,
		lastVer:  initial,
		versions: map[string]bool{initial: true},
	}, nil
}

// maybeReload fires a reload at evenly spaced points of the burst. The swap
// itself must succeed: a 501 (no loader configured) or 422 (certification
// refused) under this drill is a deployment bug, not load shedding.
func (rp *reloadProbe) maybeReload(i int) {
	if i == 0 || i%rp.interval != 0 {
		return
	}
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.issued >= rp.want {
		return
	}
	resp, err := http.Post(rp.base+"/v1/models/reload", "application/octet-stream", nil)
	if err != nil {
		log.Fatalf("reload %d: %v", rp.issued+1, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("reload %d: status %d: %s", rp.issued+1, resp.StatusCode, body)
	}
	var doc struct {
		Swapped      bool   `json:"swapped"`
		ModelVersion string `json:"model_version"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		log.Fatalf("reload %d: decoding response: %v", rp.issued+1, err)
	}
	if !doc.Swapped || doc.ModelVersion == "" {
		log.Fatalf("reload %d: server answered 200 without swapping: %s", rp.issued+1, body)
	}
	rp.issued++
	rp.lastVer = doc.ModelVersion
	rp.versions[doc.ModelVersion] = true
}

func (rp *reloadProbe) sawVersion(v string) { rp.seen.Store(v, struct{}{}) }

// verify reconciles the audit after the burst: every reload fired, every
// scan response named a generation the server really served, /healthz agrees
// with the final swap, and /metrics counted the swaps.
func (rp *reloadProbe) verify(base string) error {
	if rp.issued != rp.want {
		return fmt.Errorf("reload probe: issued %d of %d reloads — too few requests to space them", rp.issued, rp.want)
	}
	var bad []string
	rp.seen.Range(func(k, _ any) bool {
		v := k.(string)
		if v == "" || !rp.versions[v] {
			bad = append(bad, v)
		}
		return true
	})
	if len(bad) > 0 {
		return fmt.Errorf("reload probe: scan responses carried unserved model versions %q", bad)
	}
	final, err := fetchModelVersion(base)
	if err != nil {
		return fmt.Errorf("reload probe: %w", err)
	}
	if final != rp.lastVer {
		return fmt.Errorf("reload probe: /healthz model_version %s, want %s after the last swap", final, rp.lastVer)
	}
	var m server.MetricsDoc
	if err := fetchMetrics(base, &m); err != nil {
		return fmt.Errorf("reload probe: %w", err)
	}
	if m.Reloads.Load() < int64(rp.issued) {
		return fmt.Errorf("reload probe: /metrics reloads = %d, expected >= %d", m.Reloads.Load(), rp.issued)
	}
	return nil
}

// fetchModelVersion reads the resident generation stamp off /healthz.
func fetchModelVersion(base string) (string, error) {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var doc struct {
		ModelVersion string `json:"model_version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return "", fmt.Errorf("decoding /healthz: %w", err)
	}
	if doc.ModelVersion == "" {
		return "", fmt.Errorf("/healthz carries no model_version")
	}
	return doc.ModelVersion, nil
}

// patternBody generates n pseudo-random bytes on the fly, so the client
// never holds the upload either — both ends of the wire stay O(chunk).
type patternBody struct {
	remaining int64
	state     uint64
}

func (r *patternBody) Read(p []byte) (int, error) {
	if r.remaining <= 0 {
		return 0, io.EOF
	}
	n := len(p)
	if int64(n) > r.remaining {
		n = int(r.remaining)
	}
	for i := 0; i < n; i++ {
		r.state = r.state*6364136223846793005 + 1442695040888963407
		p[i] = byte(r.state >> 56)
	}
	r.remaining -= int64(n)
	return n, nil
}

// runStreamScan POSTs a size-byte chunked upload (unknown Content-Length,
// so the server must stream it) and requires a 200.
func runStreamScan(base string, size int64, key string) (time.Duration, error) {
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/scan", &patternBody{remaining: size, state: 1})
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, fmt.Errorf("streamed scan: %w", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("streamed scan: status %d: %s", resp.StatusCode, body)
	}
	return time.Since(t0), nil
}

// runAttacks submits n attack jobs on pool samples and polls each to a
// terminal state, returning how many ended done vs failed. A job that
// never reaches a terminal state is an error — the lifecycle hardening
// (deadlines, shutdown cancellation) exists precisely so that cannot
// happen, faults or not.
func runAttacks(base string, pool [][]byte, n int, key string) (done, failed int, err error) {
	type accepted struct {
		Poll string `json:"poll"`
	}
	var polls []string
	for i := 0; i < n; i++ {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/attack",
			bytes.NewReader(pool[i%len(pool)]))
		if err != nil {
			return 0, 0, err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		if key != "" {
			req.Header.Set("X-API-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, 0, err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			continue // shed by admission control; not a failure
		}
		if resp.StatusCode != http.StatusAccepted {
			return 0, 0, fmt.Errorf("attack %d: status %d: %s", i, resp.StatusCode, body)
		}
		var a accepted
		if err := json.Unmarshal(body, &a); err != nil {
			return 0, 0, err
		}
		polls = append(polls, a.Poll)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for _, p := range polls {
		for {
			resp, err := authedGet(base+p, key)
			if err != nil {
				return done, failed, err
			}
			var v struct {
				State string `json:"state"`
			}
			err = json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if err != nil {
				return done, failed, err
			}
			if v.State == "done" {
				done++
				break
			}
			if v.State == "failed" {
				failed++
				break
			}
			if time.Now().After(deadline) {
				return done, failed, fmt.Errorf("job %s stuck in state %q", p, v.State)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	return done, failed, nil
}

// authedGet GETs a URL, presenting key as X-API-Key when non-empty.
func authedGet(url, key string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	return http.DefaultClient.Do(req)
}

// fetchMetrics decodes base's /metrics into doc: a server.MetricsDoc from
// a replica, a gateway.ClusterMetrics from a gateway.
func fetchMetrics(base string, doc any) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(doc); err != nil {
		return fmt.Errorf("decoding %s/metrics: %w", base, err)
	}
	return nil
}

func fetchClusterMetrics(base string) (*gateway.ClusterMetrics, error) {
	var doc gateway.ClusterMetrics
	if err := fetchMetrics(base, &doc); err != nil {
		return nil, err
	}
	if len(doc.Replicas) == 0 {
		return nil, fmt.Errorf("cluster /metrics lists no replicas — is the target really an mpass-gateway?")
	}
	return &doc, nil
}

// quiesceCluster polls the fleet /metrics until two consecutive snapshots
// carry identical traffic counters — the burst's effects have fully landed
// on every replica — and returns the settled snapshot. The fingerprint
// deliberately covers only burst-driven counters: probe-driven ones (job
// polls, health checks) tick at rest and would never settle.
func quiesceCluster(base string) (*gateway.ClusterMetrics, error) {
	deadline := time.Now().Add(10 * time.Second)
	prev := ""
	for {
		doc, err := fetchClusterMetrics(base)
		if err != nil {
			return nil, err
		}
		key := settleKey(doc)
		if prev != "" && key == prev {
			return doc, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("cluster metrics never quiesced within 10s (still moving: %s)", key)
		}
		prev = key
		time.Sleep(100 * time.Millisecond)
	}
}

// settleKey fingerprints the per-replica counters the affinity checks read.
func settleKey(doc *gateway.ClusterMetrics) string {
	var b strings.Builder
	for _, r := range doc.Replicas {
		if r.Metrics == nil {
			fmt.Fprintf(&b, "%s:down;", r.Name)
			continue
		}
		m := r.Metrics
		fmt.Fprintf(&b, "%s:%d,%d,%d,%d,%d;", r.Name, m.ScanRequests.Load(), m.CacheHits.Load(),
			m.CacheMisses.Load(), m.ScansStreamed.Load(), m.Batches.Load())
	}
	return b.String()
}

// checkCluster enforces the shard-affinity contract on this run's deltas,
// logging each replica's split to w, and returns the fleet-wide cache-hit
// ratio. Two properties must hold under consistent-hash routing of a
// repeating sample pool:
//
//   - per replica, hits/(hits+misses) >= minHit: repeats of a sample keep
//     landing on the shard that already scored it;
//   - fleet-wide misses stay within 2x the distinct-sample count: each
//     sample cold-misses on exactly its home replica, with slack only for
//     a re-shard mid-run (retried keys warm a second shard).
//
// A broken ring degrades both: keys wander, every replica cold-misses the
// whole pool, and the ratio collapses toward 1/replicas of the ideal.
func checkCluster(w io.Writer, pre, post *gateway.ClusterMetrics, samples int64, minHit float64) (float64, error) {
	preHits := map[string][2]int64{}
	for _, r := range pre.Replicas {
		if r.Metrics != nil {
			preHits[r.Name] = [2]int64{r.Metrics.CacheHits.Load(), r.Metrics.CacheMisses.Load()}
		}
	}
	var fleetHits, fleetMisses int64
	for _, r := range post.Replicas {
		if r.Metrics == nil {
			// A replica the gateway has marked down is allowed to be
			// unreachable — that is the kill drill. A replica claimed
			// healthy but not answering /metrics is a real failure.
			if r.Healthy {
				return 0, fmt.Errorf("cluster check: healthy replica %s unreachable for /metrics", r.Name)
			}
			fmt.Fprintf(w, "  replica %s: down, excluded from affinity check\n", r.Name)
			continue
		}
		base := preHits[r.Name]
		hits := r.Metrics.CacheHits.Load() - base[0]
		misses := r.Metrics.CacheMisses.Load() - base[1]
		fleetHits += hits
		fleetMisses += misses
		if hits+misses == 0 {
			continue // owned no sampled keys this run
		}
		ratio := float64(hits) / float64(hits+misses)
		fmt.Fprintf(w, "  replica %s: %d hits / %d misses · hit ratio %.3f\n",
			r.Name, hits, misses, ratio)
		if ratio < minHit {
			return 0, fmt.Errorf("cluster check: replica %s cache-hit ratio %.3f < %.3f — shard affinity broken",
				r.Name, ratio, minHit)
		}
	}
	if fleetMisses > 2*samples {
		return 0, fmt.Errorf("cluster check: %d fleet-wide cache misses for %d distinct samples — keys are wandering across shards",
			fleetMisses, samples)
	}
	if fleetHits+fleetMisses == 0 {
		return 0, fmt.Errorf("cluster check: no cache traffic recorded during the run")
	}
	return float64(fleetHits) / float64(fleetHits+fleetMisses), nil
}

// quantile reads the q-th quantile from an ascending latency slice.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
