package main

import (
	"bytes"
	"strings"
	"testing"

	"mpass/internal/gateway"
	"mpass/internal/server"
)

// rep builds one replica entry of a gateway /metrics document. A negative
// hits count leaves the replica without a metrics document, as when the
// gateway could not reach it.
func rep(name string, healthy bool, hits, misses int64) gateway.ReplicaMetrics {
	r := gateway.ReplicaMetrics{Name: name, Healthy: healthy}
	if hits >= 0 {
		r.Metrics = &server.MetricsDoc{Metrics: &server.Metrics{}}
		r.Metrics.CacheHits.Store(hits)
		r.Metrics.CacheMisses.Store(misses)
	}
	return r
}

func fleetDoc(replicas ...gateway.ReplicaMetrics) *gateway.ClusterMetrics {
	return &gateway.ClusterMetrics{Replicas: replicas}
}

// TestCheckCluster drives the shard-affinity gate over hand-built
// before/after documents: it must pass a healthy run on this run's deltas
// alone, and fail each way the contract can break.
func TestCheckCluster(t *testing.T) {
	pre := fleetDoc(rep("a", true, 50, 5), rep("b", true, 0, 0), rep("c", true, 0, 0))
	for _, tc := range []struct {
		name    string
		post    *gateway.ClusterMetrics
		samples int64
		ratio   float64 // wanted on a pass
		errHas  string  // wanted substring on a failure
		logHas  string
	}{
		{
			name:    "pass on deltas: earlier traffic on a does not count",
			post:    fleetDoc(rep("a", true, 140, 13), rep("b", true, 60, 6), rep("c", true, 0, 0)),
			samples: 16,
			ratio:   150.0 / 164,
			logHas:  "replica b: 60 hits / 6 misses · hit ratio 0.909",
		},
		{
			name:    "per-replica hit ratio below the floor",
			post:    fleetDoc(rep("a", true, 140, 13), rep("b", true, 10, 10), rep("c", true, 0, 0)),
			samples: 16,
			errHas:  "replica b cache-hit ratio 0.500 < 0.900",
		},
		{
			name:    "fleet misses above twice the sample count",
			post:    fleetDoc(rep("a", true, 950, 13), rep("b", true, 600, 6), rep("c", true, 0, 0)),
			samples: 4,
			errHas:  "14 fleet-wide cache misses for 4 distinct samples",
		},
		{
			name:    "replica reported healthy but missing its metrics",
			post:    fleetDoc(rep("a", true, 140, 13), rep("b", true, 60, 6), rep("c", true, -1, 0)),
			samples: 16,
			errHas:  "healthy replica c unreachable",
		},
		{
			name:    "down replica is excluded",
			post:    fleetDoc(rep("a", true, 140, 13), rep("b", true, 60, 6), rep("c", false, -1, 0)),
			samples: 16,
			ratio:   150.0 / 164,
			logHas:  "replica c: down, excluded",
		},
		{
			name:    "no cache traffic",
			post:    fleetDoc(rep("a", true, 50, 5), rep("b", true, 0, 0), rep("c", true, 0, 0)),
			samples: 16,
			errHas:  "no cache traffic",
		},
	} {
		var out bytes.Buffer
		ratio, err := checkCluster(&out, pre, tc.post, tc.samples, 0.9)
		switch {
		case tc.errHas != "":
			if err == nil || !strings.Contains(err.Error(), tc.errHas) {
				t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.errHas)
			}
		case err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case ratio != tc.ratio:
			t.Errorf("%s: ratio = %v, want %v", tc.name, ratio, tc.ratio)
		}
		if !strings.Contains(out.String(), tc.logHas) {
			t.Errorf("%s: output %q lacks %q", tc.name, out.String(), tc.logHas)
		}
	}
}

// TestSettleKey: the quiesce fingerprint covers each replica's
// burst-driven counters and marks unreachable replicas, but ignores the
// gateway's own counters, which tick at rest with every probe and poll.
func TestSettleKey(t *testing.T) {
	a := rep("a", true, 2, 3)
	a.Metrics.ScanRequests.Store(1)
	a.Metrics.ScansStreamed.Store(4)
	a.Metrics.Batches.Store(5)
	doc := fleetDoc(a, rep("b", false, -1, 0))
	const want = "a:1,2,3,4,5;b:down;"
	if got := settleKey(doc); got != want {
		t.Fatalf("settleKey = %q, want %q", got, want)
	}
	doc.Gateway.JobPolls.Add(7)
	doc.Gateway.ProbeFailures.Add(1)
	if got := settleKey(doc); got != want {
		t.Fatalf("gateway counters moved the fingerprint: %q", got)
	}
	a.Metrics.CacheHits.Add(1)
	if got := settleKey(doc); got == want {
		t.Fatal("a new cache hit left the fingerprint unchanged")
	}
}
