// Package server is the serving subsystem behind cmd/mpassd: an HTTP
// scan/attack service that keeps a trained detector suite resident and
// answers on-demand queries — the detector-as-a-service oracle the
// query-based threat model of MPass (and GAMMA's black-box setting)
// presumes.
//
// The pipeline, request to response:
//
//	POST /v1/scan   -> admission (bounded queue, 429 on overload)
//	                -> SHA-256 LRU score cache
//	                -> micro-batching dispatcher (Batcher) -> ScoreBatch
//	POST /v1/attack -> admission (bounded job queue, 429 on overload)
//	                -> parallel.Pool worker -> MPass attack whose oracle
//	                   queries loop back through the cache + batcher
//	GET  /v1/jobs/{id}, /healthz, /metrics
//
// Batched scores are bit-identical to single-sample Detector.Score calls;
// server_test.go holds the parity gate. Shutdown drains: in-flight scans
// flush, queued and running attack jobs complete, new work is rejected.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mpass/internal/core"
	"mpass/internal/detect"
	"mpass/internal/engine"
	"mpass/internal/nn"
	"mpass/internal/tenant"
)

// AttackFunc runs one adversarial-example attack on original against the
// named target, querying it only through oracle. Implementations own their
// attack configuration; seed makes each job's randomness independent. The
// context carries the job's deadline and the server's shutdown cancellation
// — implementations must stop promptly once it is done.
type AttackFunc func(ctx context.Context, target detect.Detector, original []byte, oracle core.Oracle, seed int64) (*core.Result, error)

// MPassAttack is the production AttackFunc: the full MPass pipeline with the
// registry's gradient-capable engines as the known-model ensemble for the
// chosen target (hard-label-only engines never join — the paper's footnote 6
// LightGBM exclusion falls out of the capability probe) and the given
// benign-donor pool. The ensemble is resolved when the job starts, from the
// generation current at that moment, and stays pinned for the job's life.
func MPassAttack(reg *engine.Registry, donors [][]byte, maxQueries int) AttackFunc {
	return func(ctx context.Context, target detect.Detector, original []byte, oracle core.Oracle, seed int64) (*core.Result, error) {
		known := engine.GradientModels(reg.Current(), target.Name())
		if len(known) == 0 {
			return nil, fmt.Errorf("server: no gradient-capable known models resident for target %q", target.Name())
		}
		cfg := core.DefaultConfig(known, donors)
		if maxQueries > 0 {
			cfg.MaxQueries = maxQueries
		}
		cfg.Seed = seed
		attacker, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		return attacker.AttackContext(ctx, original, oracle)
	}
}

// Config sizes the serving pipeline. Zero values select the defaults noted
// per field.
type Config struct {
	// Detectors is the resident suite; scan responses list models in this
	// order. Exactly one of Detectors and Registry must be set.
	Detectors []detect.Detector
	// Registry supplies the resident models through the pluggable driver
	// layer instead of Detectors: the serving snapshot is built from its
	// current set, per-engine versions and health flow to /healthz, and
	// POST /v1/models/reload can swap generations without a restart.
	Registry *engine.Registry
	// Attack builds each /v1/attack job's attack run. Nil disables the
	// attack endpoints (501).
	Attack AttackFunc

	// Reload loads a candidate engine set for POST /v1/models/reload (the
	// path argument is the request's optional ?path= override, empty for the
	// configured default). Nil disables the endpoint (501).
	Reload func(path string) (*engine.Set, error)
	// Quant is the fixed-point table mode quantization-capable engines serve
	// in; reload certification re-applies it to incoming engines and gates
	// the swap on quant-vs-float parity.
	Quant nn.QuantMode
	// ProbeCorpus is the certification corpus reload candidates must score
	// finitely (and quant-consistently) before they may serve. Empty
	// synthesizes a deterministic default when Reload is configured.
	ProbeCorpus [][]byte

	// ModelVersion identifies the resident weight set on /healthz (e.g. a
	// digest of the model file). Empty derives a stable digest of the
	// detector names, so fleet-consistency checks work even unconfigured.
	// Registry-backed servers ignore it: their version is the engine set's
	// own content-addressed version, which must move on reload.
	ModelVersion string

	MaxBatch    int           // max requests per coalesced batch (default 32)
	BatchWindow time.Duration // flush window after the first request (default 2ms)
	ScanQueue   int           // scan admission queue; full = 429 (default 256)
	CacheSize   int           // LRU score-cache entries; 0 disables (default 4096)

	AttackWorkers int // concurrent attack jobs (default 2)
	AttackQueue   int // attack admission queue; full = 429 (default 64)

	RequestTimeout time.Duration // per-request deadline (default 10s)
	MaxBodyBytes   int64         // largest accepted buffered PE upload (default 8 MiB)

	// Streaming scan path. Uploads longer than StreamThreshold — or of
	// unknown length — bypass the buffered batcher and feed every
	// detector's ScoreStream chunk by chunk, so peak memory per request is
	// O(StreamChunk) instead of O(body). Scores equal the buffered path
	// bit for bit (detect's streaming equivalence gate). StreamThreshold
	// defaults to 1 MiB; negative disables streaming, and it is also off
	// when any configured detector lacks a streaming scorer or decision
	// threshold. StreamChunk is the read size (default 256 KiB).
	// MaxStreamBytes caps a streamed upload (default 64 MiB; beyond = 413).
	StreamThreshold int64
	StreamChunk     int
	MaxStreamBytes  int64

	// Job lifecycle bounds. JobDeadline caps each attack job's runtime
	// (default 2m; negative disables). JobTTL bounds how long a finished
	// job's result stays pollable (default 10m; negative disables). MaxJobs
	// caps the registry — live plus retained — evicting oldest-finished
	// first and shedding submits when every entry is live (default 4096;
	// negative = unbounded). DrainGrace is how long a forced shutdown waits
	// after cancelling stragglers for them to record a terminal state
	// (default 1s).
	JobDeadline time.Duration
	JobTTL      time.Duration
	MaxJobs     int
	DrainGrace  time.Duration

	// Oracle robustness. Each attack-job oracle query is retried up to
	// OracleAttempts times total (default 3; 1 disables retries) with
	// exponential backoff from OracleBackoff (default 10ms) capped at
	// OracleBackoffMax (default 1s). After OracleBreakAfter consecutive
	// queries exhaust their retries the job's circuit breaker opens and the
	// attack fails fast (default 5; negative disables).
	OracleAttempts   int
	OracleBackoff    time.Duration
	OracleBackoffMax time.Duration
	OracleBreakAfter int

	// Tenants, when non-nil, puts the multi-tenant admission layer in front
	// of every metered endpoint: requests must authenticate with a resident
	// API key and clear their tenant's token bucket and in-flight share
	// before competing for the shared batcher and job-pool capacity. Nil
	// leaves the server single-tenant and unauthenticated.
	Tenants *tenant.Table

	// OracleWrap, when non-nil, wraps each attack job's resident oracle
	// before the retry layer — the fault-injection hook (tests, mpassd
	// -fault-* flags). It must be safe for concurrent use across jobs.
	OracleWrap func(core.Oracle) core.Oracle

	Seed int64 // base seed for per-job attack randomness
}

func (c *Config) fillDefaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.BatchWindow == 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.ScanQueue <= 0 {
		c.ScanQueue = 256
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.AttackWorkers <= 0 {
		c.AttackWorkers = 2
	}
	if c.AttackQueue <= 0 {
		c.AttackQueue = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.StreamThreshold == 0 {
		c.StreamThreshold = 1 << 20
	}
	if c.StreamChunk <= 0 {
		c.StreamChunk = 256 << 10
	}
	if c.MaxStreamBytes <= 0 {
		c.MaxStreamBytes = 64 << 20
	}
	if c.JobDeadline == 0 {
		c.JobDeadline = 2 * time.Minute
	}
	if c.JobTTL == 0 {
		c.JobTTL = 10 * time.Minute
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = 4096
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = time.Second
	}
	if c.OracleAttempts <= 0 {
		c.OracleAttempts = 3
	}
	if c.OracleBackoff <= 0 {
		c.OracleBackoff = 10 * time.Millisecond
	}
	if c.OracleBackoffMax <= 0 {
		c.OracleBackoffMax = time.Second
	}
	if c.OracleBreakAfter == 0 {
		c.OracleBreakAfter = 5
	}
	// Negative values mean "disabled"; normalize to the zero the mechanisms
	// treat as off.
	if c.JobDeadline < 0 {
		c.JobDeadline = 0
	}
	if c.JobTTL < 0 {
		c.JobTTL = 0
	}
	if c.MaxJobs < 0 {
		c.MaxJobs = 0
	}
	if c.OracleBreakAfter < 0 {
		c.OracleBreakAfter = 0
	}
}

// Server is the resident scan/attack service. Build one with New, mount
// Handler on any http.Server (or httptest), and Shutdown to drain.
type Server struct {
	cfg     Config
	metrics Metrics
	batcher *Batcher
	cache   *scoreCache
	jobs    *jobRegistry

	// models is the active generation; every request path resolves the
	// resident set through one atomic load (models.go). registry, when
	// configured, is kept in step with it across reloads.
	models   atomic.Pointer[modelSet]
	registry *engine.Registry

	// reloadMu serializes POST /v1/models/reload; probes is the frozen
	// certification corpus.
	reloadMu sync.Mutex
	probes   [][]byte

	draining atomic.Bool
	seedSeq  atomic.Int64
	started  time.Time
	mux      *http.ServeMux
}

// New validates cfg, starts the batching dispatcher and the attack worker
// pool, and returns the ready-to-serve Server.
func New(cfg Config) (*Server, error) {
	if cfg.Registry != nil && len(cfg.Detectors) > 0 {
		return nil, fmt.Errorf("server: configure Detectors or Registry, not both")
	}
	cfg.fillDefaults()
	s := &Server{
		cfg:      cfg,
		cache:    newScoreCache(cfg.CacheSize),
		registry: cfg.Registry,
		started:  time.Now(),
	}
	var ms *modelSet
	if cfg.Registry != nil {
		ms = newModelSetFromEngines(cfg.Registry.Current(), cfg.StreamThreshold < 0)
	} else {
		var err error
		ms, err = newModelSetStatic(cfg.Detectors, cfg.ModelVersion, cfg.StreamThreshold < 0)
		if err != nil {
			return nil, err
		}
	}
	s.models.Store(ms)
	if cfg.Reload != nil {
		s.probes = cfg.ProbeCorpus
		if len(s.probes) == 0 {
			s.probes = defaultProbeCorpus()
		}
	}
	s.batcher = newBatcherSrc(s.snap, cfg.MaxBatch, cfg.ScanQueue, cfg.BatchWindow, &s.metrics)
	s.jobs = newJobRegistry(cfg.AttackWorkers, cfg.AttackQueue,
		cfg.JobDeadline, cfg.JobTTL, cfg.MaxJobs, cfg.DrainGrace, &s.metrics)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/scan", s.handleScan)
	s.mux.HandleFunc("POST /v1/attack", s.handleAttack)
	s.mux.HandleFunc("POST /v1/models/reload", s.handleReload)
	s.mux.HandleFunc("POST /v1/tenants/reload", s.handleTenantsReload)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the live counter set (tests and embedding daemons).
func (s *Server) Metrics() *Metrics { return &s.metrics }

// Shutdown drains the serving pipeline: new scans and attacks are rejected
// immediately, queued and running attack jobs complete (bounded by ctx),
// and the batcher flushes everything in flight before it stops. If ctx
// expires first, every outstanding job's context is cancelled and
// ctx-honoring jobs get Config.DrainGrace to record a terminal state — so
// even a wedged oracle cannot hold shutdown past the deadline plus grace.
// The caller is responsible for the HTTP listener's own Shutdown
// (http.Server waits for in-flight handlers, which in turn wait on the
// batcher).
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	err := s.jobs.shutdown(ctx)
	s.batcher.Close()
	return err
}

// scan runs the cache -> batcher pipeline. The caller passes the one
// generation snapshot it pinned for this request (snapshotonce): scan must
// not re-load the registry, or the lookup and the response could straddle a
// concurrent reload and mix generations. wait selects backpressure
// (internal oracle traffic) over shedding (interactive requests).
func (s *Server) scan(ctx context.Context, ms *modelSet, raw []byte, wait bool) (scanOut, [32]byte, bool, error) {
	sum := sha256.Sum256(raw)
	if out, ok := s.cache.get(scoreKey{version: ms.version, sum: sum}); ok {
		s.metrics.CacheHits.Add(1)
		return out, sum, true, nil
	}
	s.metrics.CacheMisses.Add(1)
	var out scanOut
	var err error
	if wait {
		out, err = s.batcher.ScoreWait(ctx, raw)
	} else {
		out, err = s.batcher.Score(ctx, raw)
	}
	if err != nil {
		return scanOut{}, sum, false, err
	}
	// File the entry under the generation that actually scored it: if a
	// reload lands between the lookup above and here, the result keys under
	// the old version — which no lookup will ever hit again — instead of
	// poisoning the new generation's segment.
	s.cache.put(scoreKey{version: out.set.version, sum: sum}, out)
	return out, sum, false, nil
}

// scanModelResult is one detector's verdict in a scan response.
type scanModelResult struct {
	Model     string  `json:"model"`
	Score     float64 `json:"score"`
	Malicious bool    `json:"malicious"`
}

// scanResponse is the POST /v1/scan response document.
type scanResponse struct {
	SHA256 string `json:"sha256"`
	Size   int    `json:"size"`
	Cached bool   `json:"cached"`
	// ModelVersion is the generation that produced these scores — under a
	// hot reload, always the set all Results came from, never a mix.
	ModelVersion string            `json:"model_version"`
	Malicious    bool              `json:"malicious"` // any model flags it
	Results      []scanModelResult `json:"results"`
}

func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	// Tenant admission first: a 401/429 here must consume nothing — not the
	// body, not a cache lookup, not a batcher slot.
	grant, ok := s.admitTenant(w, r)
	if !ok {
		return
	}
	if grant != nil {
		defer grant.Release()
	}
	// One snapshot per request: the same generation routes the streaming
	// decision and keys the cache lookup below.
	ms := s.snap()
	if s.streamEligible(r, ms) {
		s.handleScanStream(w, r, ms, grant)
		return
	}
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	// Per-tenant Scans counts in lockstep with the global ScanRequests:
	// both tick once the request has cleared validation and enters the
	// pipeline, so 400/413 rejects appear in neither ledger.
	s.metrics.ScanRequests.Add(1)
	if grant != nil {
		grant.CountScan()
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	out, key, cached, err := s.scan(ctx, ms, raw, false)
	elapsed := time.Since(start)
	s.metrics.ScanLatency.Observe(elapsed)
	if grant != nil {
		grant.ObserveScanLatency(elapsed)
	}
	if err != nil {
		s.scanError(w, err)
		return
	}
	resp := scanResponse{
		SHA256:       hex.EncodeToString(key[:]),
		Size:         len(raw),
		Cached:       cached,
		ModelVersion: out.set.version,
	}
	for i, name := range out.set.names {
		resp.Results = append(resp.Results, scanModelResult{
			Model: name, Score: out.Scores[i], Malicious: out.Labels[i],
		})
		resp.Malicious = resp.Malicious || out.Labels[i]
	}
	writeJSON(w, http.StatusOK, resp)
}

// attackResponse is the POST /v1/attack response document.
type attackResponse struct {
	ID     string `json:"id"`
	Target string `json:"target"`
	Poll   string `json:"poll"`
}

func (s *Server) handleAttack(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if s.cfg.Attack == nil {
		writeError(w, http.StatusNotImplemented, "attack endpoint disabled")
		return
	}
	grant, ok := s.admitTenant(w, r)
	if !ok {
		return
	}
	var tenantName string
	if grant != nil {
		defer grant.Release()
		tenantName = grant.Tenant()
	}
	// The submit-time snapshot pins the target detector and records the
	// generation the job started against; oracle queries still flow through
	// the live pipeline, so the job view can report both versions when a
	// reload lands mid-attack.
	ms := s.snap()
	targetName := r.URL.Query().Get("target")
	if targetName == "" {
		targetName = ms.names[0]
	}
	idx, ok := ms.byName[targetName]
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown target %q (have %v)", targetName, ms.names))
		return
	}
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	target := ms.dets[idx]
	// Oracle stack, innermost out: resident scan pipeline -> optional fault
	// wrapper (tests, -fault-* flags) -> retry + circuit breaker -> the
	// attack's own query counter (added by the AttackFunc caller below).
	// Queries counted against the attack budget are therefore logical ones;
	// retries absorb injected transients without charging the budget.
	var oracle core.Oracle = &residentOracle{s: s, name: targetName}
	if s.cfg.OracleWrap != nil {
		oracle = s.cfg.OracleWrap(oracle)
	}
	seed := s.cfg.Seed + s.seedSeq.Add(1)*7919
	id, err := s.jobs.submit(targetName, ms.version, tenantName, func(ctx context.Context, h *jobHandle) {
		retrying := &retryOracle{
			inner:      oracle,
			attempts:   s.cfg.OracleAttempts,
			backoff:    s.cfg.OracleBackoff,
			backoffMax: s.cfg.OracleBackoffMax,
			breakAfter: s.cfg.OracleBreakAfter,
			metrics:    &s.metrics,
		}
		counting := &core.CountingOracle{Oracle: retrying}
		res, aerr := s.cfg.Attack(ctx, target, raw, counting, seed)
		h.finish(raw, res, aerr, core.OracleModelVersion(counting))
	})
	switch {
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	case err != nil:
		s.metrics.AttackRejected.Add(1)
		w.Header().Set("Retry-After", s.retryAfterAttack())
		writeError(w, http.StatusTooManyRequests, "attack queue full")
		return
	}
	s.metrics.AttackRequests.Add(1)
	if grant != nil {
		grant.CountAttack()
	}
	writeJSON(w, http.StatusAccepted, attackResponse{ID: id, Target: targetName, Poll: "/v1/jobs/" + id})
}

// retryAfter estimates how long a shed client should wait before retrying:
// the current backlog divided by the observed completion rate, clamped to
// [1, 60] seconds.
func (s *Server) retryAfter(backlog int, completed int64) string {
	return strconv.Itoa(RetryAfterSecs(backlog, completed, time.Since(s.started).Seconds()))
}

// RetryAfterSecs is the pure drain-rate estimator behind every Retry-After
// hint, the replica's and the gateway's alike. The cold-start guard comes
// first: before any completion has been observed (or with a non-positive
// uptime, as on a clock step) there is no rate to divide by, so the answer
// is the minimum legal hint of 1 rather than a division by zero. The clamp
// then bounds the estimate to [1, 60], which also absorbs a zero backlog
// (ceil(1/rate) can round to 1 but the clamp makes the floor
// unconditional) and any float oddity the division could produce.
func RetryAfterSecs(backlog int, completed int64, upSeconds float64) int {
	if upSeconds <= 0 || completed <= 0 {
		return 1
	}
	rate := float64(completed) / upSeconds
	return clampRetrySecs(math.Ceil(float64(backlog+1) / rate))
}

// clampRetrySecs bounds a raw estimate to the advertised [1, 60] window.
// The lower comparison is written `!(secs >= 1)` so NaN — which fails every
// comparison — lands on the safe floor instead of leaking into the header.
func clampRetrySecs(secs float64) int {
	if !(secs >= 1) {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return int(secs)
}

// retryAfterScan derives the scan-shed hint from batcher throughput; scans
// drain orders of magnitude faster than attack jobs, so the two sheds
// advertise different waits.
func (s *Server) retryAfterScan() string {
	return s.retryAfter(len(s.batcher.reqs), s.metrics.BatchedRaws.Load())
}

// retryAfterAttack derives the attack-shed hint from job-pool throughput.
func (s *Server) retryAfterAttack() string {
	return s.retryAfter(s.jobs.pool.Pending(), int64(s.jobs.pool.Done()))
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	caller, ok := s.authTenant(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	includeAE := r.URL.Query().Get("ae") == "1"
	v, ok := s.jobs.view(id, includeAE)
	// Multi-tenant servers scope jobs to their submitter: IDs are sequential
	// and enumerable, so a foreign tenant's poll must be indistinguishable
	// from a job that never existed — 404, not 403, or the status code alone
	// would confirm the guessed ID and leak another tenant's activity.
	if ok && caller != "" && v.Tenant != caller {
		ok = false
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	live := &MetricsDoc{Metrics: &s.metrics}
	live.JobsQueued.Store(int64(s.jobs.pool.Queued()))
	live.JobsPending.Store(int64(s.jobs.pool.Pending()))
	live.JobsDone.Store(int64(s.jobs.pool.Done()))
	live.JobsRegistry.Store(int64(s.jobs.size()))
	live.JobsRegistryCap.Store(int64(s.jobs.maxJobs))
	if s.cfg.Tenants != nil {
		live.Tenants = s.cfg.Tenants.Metrics()
	}
	var doc MetricsDoc
	doc.Merge(live)
	writeJSON(w, http.StatusOK, &doc)
}

// readBody reads the raw PE upload, enforcing the size cap. On failure it
// writes the error response and returns ok=false.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes", tooBig.Limit))
		} else {
			writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		}
		return nil, false
	}
	if len(raw) == 0 {
		writeError(w, http.StatusBadRequest, "empty body; POST the PE bytes")
		return nil, false
	}
	return raw, true
}

// scanError maps pipeline errors to responses: queue-full sheds with 429,
// deadline expiry is 504, shutdown is 503.
func (s *Server) scanError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		s.metrics.ScanRejected.Add(1)
		w.Header().Set("Retry-After", s.retryAfterScan())
		writeError(w, http.StatusTooManyRequests, "scan queue full")
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.ScanErrors.Add(1)
		writeError(w, http.StatusGatewayTimeout, "scan timed out")
	case errors.Is(err, ErrClosed):
		s.metrics.ScanErrors.Add(1)
		writeError(w, http.StatusServiceUnavailable, "draining")
	default:
		s.metrics.ScanErrors.Add(1)
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
