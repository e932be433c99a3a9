package tenant

import "mpass/internal/telemetry"

// Metrics is one tenant's counter set — the per-tenant labels behind the
// /metrics document's "tenants" map. Each field's json tag is its key
// there, and the gateway merges the sets across replicas by tenant name.
type Metrics struct {
	Admitted    telemetry.Counter `json:"admitted"`     // requests past auth, bucket, and in-flight share
	Scans       telemetry.Counter `json:"scans"`        // scan requests entering the pipeline (mirrors global ScanRequests)
	Attacks     telemetry.Counter `json:"attacks"`      // admitted attack submissions
	RateLimited telemetry.Counter `json:"rate_limited"` // rejections by the token bucket
	Saturated   telemetry.Counter `json:"saturated"`    // rejections by the in-flight share
	InFlight    telemetry.Counter `json:"in_flight"`    // gauge: admitted requests not yet released

	ScanLatency telemetry.Histogram `json:"scan_latency"`
}
