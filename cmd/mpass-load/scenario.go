// Scenario runs: a small JSON DSL describing a phased, multi-tenant,
// mixed-traffic load with pass/fail thresholds. A scenario names its tenants
// (and their API keys), then runs phases in order; each phase's traffic
// streams run concurrently, and each stream is a client pool issuing a
// deterministic mix of scan / cachemiss / attack / stream requests under
// one tenant's key. A phase may also hot-swap the model generation
// mid-traffic. After the last phase the run is judged (gate.go): any
// violation lists to stderr and the process exits non-zero, which is what
// lets `make ci` fail on a latency, fairness, correctness or lifecycle
// regression. A passing run prints one `go test -bench`-style line for the
// benchjson path.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpass/internal/corpus"
	"mpass/internal/gateway"
	"mpass/internal/parallel"
	"mpass/internal/server"
)

// scenarioFile is the on-disk DSL.
type scenarioFile struct {
	Name     string            `json:"name"`
	Seed     int64             `json:"seed"`
	Samples  int               `json:"samples"`   // distinct samples in the shared pool
	StreamMB int               `json:"stream_mb"` // body size for "stream" traffic (MiB)
	Tenants  map[string]string `json:"tenants"`   // tenant name -> API key ("" key = unauthenticated)
	Phases   []scenarioPhase   `json:"phases"`
	// Thresholds judge the run. Only compliant (non-noisy) streams count
	// toward p99/shed/error/correctness/job failures — the noisy tenant is
	// *supposed* to be shed; the gate asserts everyone else keeps their SLO.
	Thresholds thresholds `json:"thresholds"`
}

type scenarioPhase struct {
	Name    string          `json:"name"`
	Streams []trafficStream `json:"streams"`
	// Reloads fires this many POST /v1/models/reload calls, evenly spaced
	// through the phase's requests. Every swap must land; plain replicas
	// only.
	Reloads int `json:"reloads"`
}

type trafficStream struct {
	Tenant   string             `json:"tenant"`
	Clients  int                `json:"clients"`
	Requests int                `json:"requests"`
	Noisy    bool               `json:"noisy"`   // expected to be shed; excluded from SLO stats
	Traffic  map[string]float64 `json:"traffic"` // kind -> weight; empty = all "scan"
}

// thresholds are all optional (nil = unchecked), so a scenario gates on
// exactly the properties it exercises.
type thresholds struct {
	MaxP99Ms          *float64 `json:"max_p99_ms"`
	MaxShedRate       *float64 `json:"max_shed_rate"`
	MaxErrorRate      *float64 `json:"max_error_rate"`
	MinCorrectness    *float64 `json:"min_correctness"`
	FairnessMaxDelta  *float64 `json:"fairness_max_delta"`
	MaxJobFailureRate *float64 `json:"max_job_failure_rate"` // share of attack jobs ending "failed"
	// MinHitRatio turns on the gateway shard-affinity gate (checkCluster):
	// the per-replica cache-hit floor over this run's /metrics deltas.
	MinHitRatio *float64 `json:"min_hit_ratio"`
}

var trafficKinds = map[string]bool{"scan": true, "cachemiss": true, "attack": true, "stream": true}

// parseScenario decodes and validates a scenario document. Unknown keys
// are errors: every threshold is optional, so a misspelled one would
// otherwise parse cleanly and silently gate nothing.
func parseScenario(data []byte) (*scenarioFile, error) {
	var sc scenarioFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("decoding scenario: %w", err)
	}
	if sc.Name == "" {
		return nil, fmt.Errorf("scenario has no name")
	}
	if len(sc.Phases) == 0 {
		return nil, fmt.Errorf("scenario %q declares no phases", sc.Name)
	}
	if sc.Samples <= 0 {
		sc.Samples = 32
	}
	if sc.StreamMB <= 0 {
		sc.StreamMB = 2
	}
	for pi, ph := range sc.Phases {
		if ph.Name == "" {
			return nil, fmt.Errorf("scenario %q: phase %d has no name", sc.Name, pi)
		}
		if len(ph.Streams) == 0 {
			return nil, fmt.Errorf("scenario %q: phase %q has no streams", sc.Name, ph.Name)
		}
		if ph.Reloads < 0 {
			return nil, fmt.Errorf("scenario %q: phase %q has negative reloads", sc.Name, ph.Name)
		}
		for si, st := range ph.Streams {
			if st.Tenant == "" {
				return nil, fmt.Errorf("phase %q stream %d names no tenant", ph.Name, si)
			}
			if _, ok := sc.Tenants[st.Tenant]; !ok {
				return nil, fmt.Errorf("phase %q stream %d: tenant %q not in the scenario's tenants map", ph.Name, si, st.Tenant)
			}
			if st.Clients < 1 || st.Requests < 1 {
				return nil, fmt.Errorf("phase %q stream %d: clients and requests must be >= 1", ph.Name, si)
			}
			for kind, w := range st.Traffic {
				if !trafficKinds[kind] {
					return nil, fmt.Errorf("phase %q stream %d: unknown traffic kind %q", ph.Name, si, kind)
				}
				if w < 0 {
					return nil, fmt.Errorf("phase %q stream %d: negative weight for %q", ph.Name, si, kind)
				}
			}
		}
	}
	return &sc, nil
}

// scenarioRun holds the shared state one scenario execution accumulates.
type scenarioRun struct {
	base string
	sc   *scenarioFile
	pool [][]byte

	// scores audits correctness: (sha256 | model_version) -> the score
	// fingerprint first observed for it. Any later response disagreeing is
	// a correctness failure — the serving tier returned different verdicts
	// for identical bytes under the same model generation.
	scores   sync.Map
	versions sync.Map // model_version -> struct{}, from every 200 scan

	uniq atomic.Int64 // cache-miss body uniquifier
}

// runScenario executes the scenario at path against base and judges it,
// returning an error (non-zero exit) on any violation.
func runScenario(base, path string, maxP99Override time.Duration) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sc, err := parseScenario(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	t := sc.Thresholds
	if maxP99Override > 0 {
		ms := float64(maxP99Override) / 1e6
		t.MaxP99Ms = &ms
	}

	// The target's own /metrics says what it is: a gateway's document lists
	// its replicas. Snapshot it before the traffic so every server-side
	// check reads this run's deltas only.
	pre, preCluster, err := fetchMetrics(base)
	if err != nil {
		return err
	}
	wantReloads := 0
	for _, ph := range sc.Phases {
		wantReloads += ph.Reloads
	}
	var rl *reloader
	switch {
	case preCluster != nil && wantReloads > 0:
		return fmt.Errorf("%s: reload phases drive a single plain replica, not a gateway", path)
	case preCluster == nil && t.MinHitRatio != nil:
		return fmt.Errorf("%s: min_hit_ratio gates a gateway's fleet, but %s is a plain replica", path, base)
	case preCluster == nil:
		// A plain replica names its generation on /healthz; every scan
		// response is audited against the versions it really served.
		initial, err := fetchModelVersion(base)
		if err != nil {
			return err
		}
		rl = &reloader{base: base, log: reloadLog{served: map[string]bool{initial: true}, last: initial}}
	}

	g := corpus.NewGenerator(sc.Seed + 31000)
	run := &scenarioRun{base: base, sc: sc, pool: make([][]byte, sc.Samples)}
	for i := range run.pool {
		fam := corpus.Benign
		if i%2 == 0 {
			fam = corpus.Malware
		}
		run.pool[i] = g.Sample(fam).Raw
	}

	var results []streamResult
	start := time.Now()
	for _, ph := range sc.Phases {
		results = append(results, run.phase(ph, rl)...)
	}
	elapsed := time.Since(start)

	// Server-side counters may still be settling on a fleet (batcher
	// flushes, per-replica scrapes fetched non-atomically): quiesce first.
	var post *server.MetricsDoc
	var postCluster *gateway.ClusterMetrics
	if preCluster != nil {
		if postCluster, err = quiesceCluster(base); err == nil {
			post = &postCluster.Cluster
		}
	} else {
		post, _, err = fetchMetrics(base)
	}
	if err != nil {
		return err
	}

	s := summarize(results)
	violations := judge(s, t)
	swaps := 0
	if rl != nil {
		l := rl.snapshot()
		swaps = l.swaps
		healthz, err := fetchModelVersion(base)
		if err != nil {
			return err
		}
		var seen []string
		run.versions.Range(func(k, _ any) bool {
			seen = append(seen, k.(string))
			return true
		})
		violations = append(violations, auditReloads(wantReloads, l, seen, healthz)...)
	}
	violations = append(violations, crossCheck(pre, post, results, int64(sc.StreamMB)<<20, swaps)...)
	extra := ""
	if t.MinHitRatio != nil {
		ratio, err := checkCluster(os.Stderr, preCluster, postCluster, int64(sc.Samples), *t.MinHitRatio)
		if err != nil {
			violations = append(violations, violation(err.Error()))
		}
		extra += fmt.Sprintf(" %.3f hit-ratio %d replicas", ratio, len(postCluster.Replicas))
	}
	if wantReloads > 0 {
		extra += fmt.Sprintf(" %d reloads", swaps)
	}

	rps := float64(s.total) / elapsed.Seconds()
	fmt.Fprintf(os.Stderr,
		"scenario %s: %d compliant requests in %v · %.0f req/s · p50 %v p99 %v · shed %.3f · errors %.3f · correctness %.4f · fairness-delta %.3f\n",
		sc.Name, s.total, elapsed.Round(time.Millisecond), rps, s.p50.Round(time.Microsecond),
		s.p99.Round(time.Microsecond), s.shedRate, s.errRate, s.correctness, s.fairnessDelta)
	if jobs := s.jobsDone + s.jobsFailed; jobs > 0 {
		fmt.Fprintf(os.Stderr,
			"attack jobs: %d terminal (%d done, %d failed) · server: %d oracle queries, %d retries, %d breaker opens, %d jobs cancelled\n",
			jobs, s.jobsDone, s.jobsFailed, post.OracleQueries.Load(), post.OracleRetries.Load(),
			post.OracleBreaks.Load(), post.JobsCancelled.Load())
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "THRESHOLD VIOLATED: %s\n", v)
		}
		return fmt.Errorf("scenario %s failed %d check(s)", sc.Name, len(violations))
	}
	fmt.Fprintf(os.Stderr, "scenario %s: all checks passed\n", sc.Name)

	// One benchmark line per passing run; each (value, unit) pair after
	// ns/op becomes a benchjson custom metric.
	nsPerOp := 0.0
	if s.total > 0 {
		nsPerOp = float64(elapsed.Nanoseconds()) / float64(s.total)
	}
	fmt.Printf("BenchmarkScenario%s %d %.0f ns/op %.1f req/s %d p50-ns %d p99-ns %.4f shed-rate %.4f fairness-delta %.4f correctness%s\n",
		camelName(sc.Name), s.total, nsPerOp, rps, s.p50.Nanoseconds(), s.p99.Nanoseconds(),
		s.shedRate, s.fairnessDelta, s.correctness, extra)
	return nil
}

// phase runs one phase's streams concurrently — that is what makes a
// contention phase a contention phase — each stream on its own client
// pool, and firing the phase's reloads from inside the traffic.
func (run *scenarioRun) phase(ph scenarioPhase, rl *reloader) []streamResult {
	start := time.Now()
	var every int64
	if ph.Reloads > 0 {
		n := 0
		for _, st := range ph.Streams {
			n += st.Requests
		}
		every = max(1, int64(n/(ph.Reloads+1)))
	}
	var issued atomic.Int64
	tallies := make([]liveTally, len(ph.Streams))
	parallel.ForEach(len(ph.Streams), len(ph.Streams), func(si int) {
		st := ph.Streams[si]
		key := run.sc.Tenants[st.Tenant]
		parallel.ForEach(st.Clients, st.Requests, func(i int) {
			// Swap k fires as the phase's (k·every)-th request starts:
			// exactly ph.Reloads swaps, evenly spaced, under live traffic.
			if every > 0 {
				if k := issued.Add(1); k%every == 0 && k/every <= int64(ph.Reloads) {
					rl.swap()
				}
			}
			kind := pickKind(st.Traffic, unitRand(run.sc.Seed, si, i))
			tallies[si].add(run.issue(kind, key, si, i))
		})
	})
	out := make([]streamResult, len(ph.Streams))
	for si, st := range ph.Streams {
		out[si] = streamResult{phase: ph.Name, tenant: st.Tenant, noisy: st.Noisy, tally: tallies[si].result()}
		tag := ""
		if st.Noisy {
			tag = " [noisy]"
		}
		fmt.Fprintf(os.Stderr, "phase %-12s %s%s: %d ok, %d shed, %d failed (%v)\n",
			ph.Name, st.Tenant, tag, out[si].ok, out[si].shed, out[si].failed,
			time.Since(start).Round(time.Millisecond))
	}
	return out
}

// liveTally accumulates one stream's per-request tallies from its client
// pool.
type liveTally struct {
	mu sync.Mutex
	t  tally // guarded by mu
}

func (l *liveTally) add(r tally) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.t.add(r)
}

func (l *liveTally) result() tally {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.t
}

// issue performs one request of the given kind.
func (run *scenarioRun) issue(kind, key string, stream, i int) tally {
	switch kind {
	case "cachemiss":
		// A globally unique suffix defeats the score cache, forcing the full
		// batcher path; the mutated body is still audited for consistency
		// against any replica that later scores the same bytes.
		body := append(append([]byte(nil), run.pool[i%len(run.pool)]...),
			[]byte(fmt.Sprintf("::miss-%d", run.uniq.Add(1)))...)
		return run.doScan(body, key)
	case "attack":
		return run.doAttack(run.pool[i%len(run.pool)], key)
	case "stream":
		return run.doStream(key, int64(run.sc.StreamMB)<<20, int64(stream)<<32|int64(i))
	default:
		return run.doScan(run.pool[i%len(run.pool)], key)
	}
}

// send issues one request under the tenant key ("" = anonymous).
func (run *scenarioRun) send(method, path string, body io.Reader, key string) (*http.Response, error) {
	req, err := http.NewRequest(method, run.base+path, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	return http.DefaultClient.Do(req)
}

// failure is the tally of a request that failed outright.
var failure = tally{failed: 1}

// refused tallies a response that did not serve the request: a 429 is a
// shed, and every 429 — quota or capacity, replica or gateway — must carry
// an integer Retry-After >= 1; anything else is a failure.
func refused(resp *http.Response) tally {
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusTooManyRequests {
		return failure
	}
	t := tally{shed: 1}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.badRetryAfter = 1
	}
	return t
}

// doScan POSTs one scan and audits the 200 response's scores.
func (run *scenarioRun) doScan(body []byte, key string) tally {
	t0 := time.Now()
	resp, err := run.send(http.MethodPost, "/v1/scan", bytes.NewReader(body), key)
	if err != nil {
		return failure
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return refused(resp)
	}
	t := tally{ok: 1, scanned: 1, audited: 1, lat: []time.Duration{time.Since(t0)}}
	if !run.auditScan(resp.Body, body) {
		t.incorrect = 1
	}
	return t
}

// auditScan pins (sha256, model_version) -> scores: the first response
// wins, and every later response for the same pair must agree exactly. It
// also records the model version for the reload audit. An undecodable body
// is an audit failure — a response the server got wrong.
func (run *scenarioRun) auditScan(r io.Reader, sent []byte) bool {
	var doc struct {
		SHA256       string `json:"sha256"`
		ModelVersion string `json:"model_version"`
		Results      []struct {
			Model string  `json:"model"`
			Score float64 `json:"score"`
		} `json:"results"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return false
	}
	run.versions.Store(doc.ModelVersion, struct{}{})
	sum := sha256.Sum256(sent)
	if doc.SHA256 != hex.EncodeToString(sum[:]) {
		return false // the server hashed different bytes than we sent
	}
	var fp strings.Builder
	for _, res := range doc.Results {
		fmt.Fprintf(&fp, "%s=%x;", res.Model, res.Score)
	}
	prev, loaded := run.scores.LoadOrStore(doc.SHA256+"|"+doc.ModelVersion, fp.String())
	return !loaded || prev.(string) == fp.String()
}

// doAttack submits one attack job and polls it to a terminal state. Both
// terminal states are served requests — an attack that ran its budget and
// lost is not a serving failure — but the state is recorded for the job
// failure-rate gate. A job stuck outside a terminal state is a failure:
// the lifecycle hardening exists precisely so that cannot happen.
func (run *scenarioRun) doAttack(body []byte, key string) tally {
	resp, err := run.send(http.MethodPost, "/v1/attack", bytes.NewReader(body), key)
	if err != nil {
		return failure
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return refused(resp)
	}
	var acc struct {
		Poll string `json:"poll"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil || acc.Poll == "" {
		return failure
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		switch state, err := run.jobState(acc.Poll, key); {
		case err != nil:
			return failure
		case state == "done":
			return tally{ok: 1, jobsDone: 1}
		case state == "failed":
			return tally{ok: 1, jobsFailed: 1}
		}
		if time.Now().After(deadline) {
			return failure
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// jobState polls one job record.
func (run *scenarioRun) jobState(poll, key string) (string, error) {
	resp, err := run.send(http.MethodGet, poll, nil, key)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var v struct {
		State string `json:"state"`
	}
	err = json.NewDecoder(resp.Body).Decode(&v)
	return v.State, err
}

// doStream POSTs one chunked upload of size bytes (unknown Content-Length,
// so the replica must take the O(chunk) streaming path).
func (run *scenarioRun) doStream(key string, size, seed int64) tally {
	resp, err := run.send(http.MethodPost, "/v1/scan", &patternBody{remaining: size, state: uint64(seed) | 1}, key)
	if err != nil {
		return failure
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return refused(resp)
	}
	io.Copy(io.Discard, resp.Body)
	return tally{ok: 1, scanned: 1, streamed: 1}
}

// patternBody generates pseudo-random bytes on the fly, so the client never
// holds the upload either — both ends of the wire stay O(chunk).
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

// reloader fires a run's model swaps from inside its traffic and keeps the
// ledger auditReloads checks afterwards.
type reloader struct {
	base string
	mu   sync.Mutex
	log  reloadLog // guarded by mu
}

// swap POSTs one reload. It must land: a 501 (no loader configured) or
// 422 (certification refused) under a reload phase is a deployment bug,
// not load shedding, so the first failure is recorded and ends the swaps.
func (rl *reloader) swap() {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if rl.log.err != nil {
		return
	}
	resp, err := http.Post(rl.base+"/v1/models/reload", "application/octet-stream", nil)
	if err != nil {
		rl.log.err = fmt.Errorf("reload %d: %w", rl.log.swaps+1, err)
		return
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc struct {
		Swapped      bool   `json:"swapped"`
		ModelVersion string `json:"model_version"`
	}
	switch {
	case resp.StatusCode != http.StatusOK:
		rl.log.err = fmt.Errorf("reload %d: status %d: %s", rl.log.swaps+1, resp.StatusCode, body)
	case json.Unmarshal(body, &doc) != nil || !doc.Swapped || doc.ModelVersion == "":
		rl.log.err = fmt.Errorf("reload %d: server answered 200 without swapping: %s", rl.log.swaps+1, body)
	default:
		rl.log.swaps++
		rl.log.last = doc.ModelVersion
		rl.log.served[doc.ModelVersion] = true
	}
}

func (rl *reloader) snapshot() reloadLog {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.log
}

// pickKind selects a traffic kind from the weighted mix. Kinds are walked
// in a fixed order so the choice is a pure function of (weights, u).
func pickKind(traffic map[string]float64, u float64) string {
	if len(traffic) == 0 {
		return "scan"
	}
	order := []string{"scan", "cachemiss", "attack", "stream"}
	total := 0.0
	for _, k := range order {
		total += traffic[k]
	}
	if total <= 0 {
		return "scan"
	}
	x := u * total
	for _, k := range order {
		if w := traffic[k]; w > 0 {
			if x < w {
				return k
			}
			x -= w
		}
	}
	return "scan"
}

// unitRand maps (seed, stream, i) to [0, 1) through a splitmix64 finalizer
// — deterministic across runs, decorrelated across streams and requests.
func unitRand(seed int64, stream, i int) float64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xBF58476D1CE4E5B9 + uint64(i)*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// camelName renders a scenario name as a benchmark identifier:
// "noisy-neighbor" -> "NoisyNeighbor".
func camelName(name string) string {
	var b strings.Builder
	up := true
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z':
			if up {
				r -= 'a' - 'A'
			}
			b.WriteRune(r)
			up = false
		case r >= 'A' && r <= 'Z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			up = false
		default:
			up = true
		}
	}
	return b.String()
}
