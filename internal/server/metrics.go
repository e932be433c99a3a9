package server

import (
	"time"

	"mpass/internal/telemetry"
	"mpass/internal/tenant"
)

// Metrics is the daemon's counter set, and each field's json tag is its
// /metrics key. Unlike the stdlib expvar package there is no
// process-global registry, so every Server instance — including the many
// spun up by tests — owns an independent set.
type Metrics struct {
	// Request outcomes.
	ScanRequests   telemetry.Counter `json:"scan_requests"`   // POST /v1/scan accepted for scoring
	ScanRejected   telemetry.Counter `json:"scan_rejected"`   // scans shed with 429 (batcher queue full)
	ScanErrors     telemetry.Counter `json:"scan_errors"`     // scans failing for any other reason
	AttackRequests telemetry.Counter `json:"attack_requests"` // POST /v1/attack jobs admitted
	AttackRejected telemetry.Counter `json:"attack_rejected"` // attacks shed with 429 (job queue full)

	// Scoring pipeline.
	CacheHits     telemetry.Counter `json:"cache_hits"`     // scan lookups answered by the score cache (oracle queries bypass it)
	CacheMisses   telemetry.Counter `json:"cache_misses"`   // scan lookups sent on to the batcher
	ScansStreamed telemetry.Counter `json:"scans_streamed"` // scans served by the O(chunk) streaming path
	StreamedBytes telemetry.Counter `json:"streamed_bytes"` // total bytes fed through streaming scans
	Batches       telemetry.Counter `json:"batches"`        // dispatcher flushes
	BatchedRaws   telemetry.Counter `json:"batched_raws"`   // samples scored across all flushes
	MaxBatchSize  telemetry.Max     `json:"max_batch_size"` // largest coalesced batch observed
	Coalesced     telemetry.Counter `json:"coalesced_batches"`

	// Oracle traffic from resident attack jobs.
	OracleQueries telemetry.Counter `json:"oracle_queries"`
	OracleRetries telemetry.Counter `json:"oracle_retries"` // backed-off re-attempts after transient oracle errors
	OracleBreaks  telemetry.Counter `json:"oracle_breaks"`  // circuit-breaker openings (oracle declared unavailable)

	// Job lifecycle robustness.
	JobsEvicted   telemetry.Counter `json:"jobs_evicted"`   // finished jobs dropped from the registry (TTL or cap)
	JobsCancelled telemetry.Counter `json:"jobs_cancelled"` // jobs ended by deadline expiry or shutdown cancellation

	// Model hot-reload lifecycle.
	Reloads        telemetry.Counter `json:"reloads"`         // successful model-set swaps
	ReloadFailures telemetry.Counter `json:"reload_failures"` // reloads rejected (load error or failed certification)
	CachePurged    telemetry.Counter `json:"cache_purged"`    // score-cache entries dropped across all swaps

	// Tenant admission layer (zero when no allowlist is configured).
	TenantUnauthenticated telemetry.Counter `json:"tenant_unauthenticated"` // requests rejected 401 (unknown or missing key)
	TenantRejected        telemetry.Counter `json:"tenant_rejected"`        // requests rejected 429 by a tenant quota
	TenantReloads         telemetry.Counter `json:"tenant_reloads"`         // successful allowlist reloads (SIGHUP or endpoint)

	ScanLatency telemetry.Histogram `json:"scan_latency"`
	BatchWait   telemetry.Histogram `json:"batch_wait"` // enqueue to the start of the flush that scores it
}

// observeBatch records one dispatcher flush of batch, started at start.
//
//mpass:zeroalloc
func (m *Metrics) observeBatch(batch []*scanReq, start time.Time) {
	for _, r := range batch {
		m.BatchWait.Observe(start.Sub(r.enq))
	}
	n := len(batch)
	m.Batches.Add(1)
	m.BatchedRaws.Add(int64(n))
	if n > 1 {
		m.Coalesced.Add(1)
	}
	m.MaxBatchSize.Observe(int64(n))
}

// MetricsDoc is the /metrics document: the counter set plus the gauges the
// Server samples per request. A gateway decodes one per replica and Merges
// them into the cluster document, so both read the same way.
type MetricsDoc struct {
	*Metrics

	// Job-pool queue depths and the registry's size under its
	// max-live-jobs bound (0 = unbounded).
	JobsQueued      telemetry.Counter `json:"jobs_queued"`
	JobsPending     telemetry.Counter `json:"jobs_pending"`
	JobsDone        telemetry.Counter `json:"jobs_done"`
	JobsRegistry    telemetry.Counter `json:"jobs_registry"`
	JobsRegistryCap telemetry.Counter `json:"jobs_registry_cap"`

	// Tenants carries the per-tenant counter sets, keyed by tenant name;
	// absent on single-tenant deployments.
	Tenants map[string]*tenant.Metrics `json:"tenants,omitempty"`

	// MeanBatch is derived from the merged batch counters.
	MeanBatch float64 `json:"mean_batch_size"`
}

// Merge folds src into d: counters and gauges sum, the max batch size
// takes the max, histograms merge bucket by bucket, and the mean batch
// size is re-derived. Merging a live document into a zero one snapshots
// it.
func (d *MetricsDoc) Merge(src *MetricsDoc) {
	telemetry.Merge(d, src)
	if b := d.Batches.Load(); b > 0 {
		d.MeanBatch = float64(d.BatchedRaws.Load()) / float64(b)
	}
}
