// Command mpass-load replays a scenario file (scenarios/*.json) against a
// running mpassd or mpass-gateway and gates the run. It waits for /healthz,
// runs the scenario's phases, then judges the outcome against the
// scenario's thresholds and the target's own /metrics, and exits non-zero
// on any violation. A passing run prints one `go test -bench`-style line on
// stdout, so cmd/benchjson turns runs into machine-readable reports:
//
//	mpassd -addr 127.0.0.1:0 -addr-file /tmp/mpassd.addr &
//	mpass-load -addr "$(cat /tmp/mpassd.addr)" -scenario scenarios/serve-smoke.json \
//	    | go run ./cmd/benchjson
//
// Some checks need no threshold. The tool reads from /metrics whether the
// target is a gateway (its document lists replicas). On a plain replica it
// audits every scan response's model_version against the generations the
// replica really served and checks /healthz agrees with the last one. On
// every target it cross-checks the server's counters against its own
// client-side tallies.
//
// Every serving drill in the Makefile is one or more such runs against the
// topology scripts/drill.sh boots. -scenario-max-p99 overrides the file's
// p99 bound; the negative drill uses it to prove a violated threshold
// really fails the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"mpass/internal/gateway"
	"mpass/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mpass-load: ")

	addr := flag.String("addr", "127.0.0.1:8877", "mpassd or mpass-gateway address (host:port)")
	wait := flag.Duration("wait", 15*time.Second, "how long to wait for /healthz before giving up")
	scenarioPath := flag.String("scenario", "", "scenario JSON file to run (required)")
	maxP99 := flag.Duration("scenario-max-p99", 0, "override the scenario file's max_p99_ms threshold (0 keeps the file's value)")
	flag.Parse()
	if *scenarioPath == "" {
		log.Fatal("-scenario is required")
	}
	base := "http://" + *addr
	if err := waitHealthy(base, *wait); err != nil {
		log.Fatal(err)
	}
	if err := runScenario(base, *scenarioPath, *maxP99); err != nil {
		log.Fatal(err)
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

// fetchMetrics reads base's /metrics. A gateway's document lists its
// replicas: cluster is then the whole document and doc its merged fleet
// counters. A replica's document is doc alone, with cluster nil.
func fetchMetrics(base string) (doc *server.MetricsDoc, cluster *gateway.ClusterMetrics, err error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	var c gateway.ClusterMetrics
	if err := json.Unmarshal(body, &c); err != nil {
		return nil, nil, fmt.Errorf("decoding %s/metrics: %w", base, err)
	}
	if len(c.Replicas) > 0 {
		return &c.Cluster, &c, nil
	}
	doc = &server.MetricsDoc{Metrics: &server.Metrics{}}
	if err := json.Unmarshal(body, doc); err != nil {
		return nil, nil, fmt.Errorf("decoding %s/metrics: %w", base, err)
	}
	return doc, nil, nil
}

// fetchModelVersion reads the resident generation stamp off a replica's
// /healthz.
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

// quiesceCluster polls the fleet /metrics until two consecutive snapshots
// carry identical traffic counters — the run's effects have fully landed
// on every replica — and returns the settled snapshot. The fingerprint
// deliberately covers only traffic-driven counters: probe-driven ones (job
// polls, health checks) tick at rest and would never settle.
func quiesceCluster(base string) (*gateway.ClusterMetrics, error) {
	deadline := time.Now().Add(10 * time.Second)
	prev := ""
	for {
		_, doc, err := fetchMetrics(base)
		if err != nil {
			return nil, err
		}
		if doc == nil {
			return nil, fmt.Errorf("%s/metrics lists no replicas — is the target really an mpass-gateway?", base)
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
