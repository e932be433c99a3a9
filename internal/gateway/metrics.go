package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"mpass/internal/parallel"
	"mpass/internal/server"
	"mpass/internal/telemetry"
)

// Metrics is the gateway's own counter set — routing, retry, re-shard, and
// backpressure events — and each field's json tag is its key in the
// /metrics document's "gateway" section. Replica-side counters are not
// mirrored here; the /metrics handler fetches and merges them live so the
// cluster view is always the fleet's truth, not a gateway-side shadow.
type Metrics struct {
	ScansRouted  telemetry.Counter `json:"scans_routed"`  // scan requests forwarded to a replica
	ScanRetries  telemetry.Counter `json:"scan_retries"`  // scans retried once after a replica loss
	ScansFailed  telemetry.Counter `json:"scans_failed"`  // scans failed after the retry (502/504 to client)
	ScansShed    telemetry.Counter `json:"scans_shed"`    // replica 429s passed through with cluster Retry-After
	ScansSpooled telemetry.Counter `json:"scans_spooled"` // uploads too large to buffer, spooled to disk while hashing
	SpooledBytes telemetry.Counter `json:"spooled_bytes"`

	AttacksRouted telemetry.Counter `json:"attacks_routed"` // attack submits forwarded
	AttackRetries telemetry.Counter `json:"attack_retries"` // attack submits retried once after a replica loss
	AttacksFailed telemetry.Counter `json:"attacks_failed"`
	AttacksShed   telemetry.Counter `json:"attacks_shed"` // replica 429s passed through

	JobPolls  telemetry.Counter `json:"job_polls"`  // GET /v1/jobs/{replica}/{id} forwards
	JobErrors telemetry.Counter `json:"job_errors"` // polls that could not reach the owning replica

	ProbeFailures     telemetry.Counter `json:"probe_failures"`
	RingRebuilds      telemetry.Counter `json:"ring_rebuilds"`
	ReplicaDownEvents telemetry.Counter `json:"replica_down_events"`
	ReplicaUpEvents   telemetry.Counter `json:"replica_up_events"`
	ReplicasHealthy   telemetry.Counter `json:"replicas_healthy"` // gauge
	ReplicasTotal     telemetry.Counter `json:"replicas_total"`   // gauge
}

// ReplicaMetrics is one fleet member's slice of the /metrics document.
type ReplicaMetrics struct {
	Name    string             `json:"name"`
	Healthy bool               `json:"healthy"`
	Error   string             `json:"error,omitempty"`
	Metrics *server.MetricsDoc `json:"metrics,omitempty"`
}

// ClusterMetrics is the gateway's GET /metrics response: the fleet merged
// into one MetricsDoc (same shape as a single replica's /metrics, so
// existing tooling reads either), the gateway's own counters, and the
// per-replica documents the merge was built from.
type ClusterMetrics struct {
	Cluster  server.MetricsDoc `json:"cluster"`
	Gateway  Metrics           `json:"gateway"`
	Replicas []ReplicaMetrics  `json:"replicas"`
}

// fetchReplicaMetrics pulls one replica's /metrics document.
func (g *Gateway) fetchReplicaMetrics(ctx context.Context, r *replica) (*server.MetricsDoc, error) {
	mctx, cancel := context.WithTimeout(ctx, g.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(mctx, http.MethodGet, r.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics status %d", resp.StatusCode)
	}
	var doc server.MetricsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// handleMetrics aggregates /metrics across the fleet: every replica —
// including ones marked down, which may still answer — is polled
// concurrently, the reachable documents are merged, and the response
// carries cluster totals, gateway counters, and the per-replica documents.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	n := len(g.replicas)
	doc := &ClusterMetrics{
		Cluster:  server.MetricsDoc{Metrics: &server.Metrics{}},
		Replicas: make([]ReplicaMetrics, n),
	}
	parallel.ForEach(n, n, func(i int) {
		rep := g.replicas[i]
		doc.Replicas[i] = ReplicaMetrics{Name: rep.name, Healthy: rep.healthy.Load()}
		m, err := g.fetchReplicaMetrics(r.Context(), rep)
		if err != nil {
			doc.Replicas[i].Error = err.Error()
			return
		}
		doc.Replicas[i].Metrics = m
	})
	for _, rm := range doc.Replicas {
		if rm.Metrics != nil {
			doc.Cluster.Merge(rm.Metrics)
		}
	}
	telemetry.Merge(&doc.Gateway, &g.metrics)
	writeJSON(w, http.StatusOK, doc)
}

// ClusterHealth is the gateway's GET /healthz response: per-replica state
// plus the fleet roll-up. Status is "ok" with the whole fleet up,
// "degraded" (still 200) with a partial fleet, "unavailable" (503) with
// none — so bare status-code probes keep working against the gateway too.
type ClusterHealth struct {
	Status   string          `json:"status"`
	Healthy  int             `json:"healthy"`
	Total    int             `json:"total"`
	UptimeS  float64         `json:"uptime_s"`
	ModelMix bool            `json:"model_mixed"` // healthy replicas disagree on model_version
	Replicas []ReplicaHealth `json:"replicas"`
}

// ReplicaHealth is one member's health slice. Engines passes through the
// replica's per-engine name/version/health lines, so a fleet operator can
// see exactly which engine generation each replica is serving across a
// rolling hot-reload.
type ReplicaHealth struct {
	Name         string                `json:"name"`
	Healthy      bool                  `json:"healthy"`
	Draining     bool                  `json:"draining,omitempty"`
	ModelVersion string                `json:"model_version,omitempty"`
	Engines      []server.EngineHealth `json:"engines,omitempty"`
	JobsPending  int                   `json:"jobs_pending"`
	ScanQueue    int                   `json:"scan_queue"`
	AgeS         float64               `json:"probe_age_s"` // time since the last probe
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if g.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	now := time.Now()
	doc := ClusterHealth{
		Total:   len(g.replicas),
		UptimeS: time.Since(g.started).Seconds(),
	}
	version := ""
	for _, rep := range g.replicas {
		st, probed := rep.status()
		up := rep.healthy.Load()
		rh := ReplicaHealth{
			Name:         rep.name,
			Healthy:      up,
			Draining:     st.Draining,
			ModelVersion: st.ModelVersion,
			Engines:      st.Engines,
			JobsPending:  st.JobsPending,
			ScanQueue:    st.ScanQueue,
		}
		if !probed.IsZero() {
			rh.AgeS = now.Sub(probed).Seconds()
		}
		doc.Replicas = append(doc.Replicas, rh)
		if up {
			doc.Healthy++
			if st.ModelVersion != "" {
				if version == "" {
					version = st.ModelVersion
				} else if version != st.ModelVersion {
					doc.ModelMix = true
				}
			}
		}
	}
	code := http.StatusOK
	switch {
	case doc.Healthy == 0:
		doc.Status = "unavailable"
		code = http.StatusServiceUnavailable
	case doc.Healthy < doc.Total:
		doc.Status = "degraded"
	default:
		doc.Status = "ok"
	}
	writeJSON(w, code, doc)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
