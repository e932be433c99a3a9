package main

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mpass/internal/server"
)

func ptr(f float64) *float64 { return &f }

// ms builds n identical latencies of d milliseconds.
func ms(n int, d float64) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(d * 1e6)
	}
	return out
}

// clean is a compliant stream that met every SLO: 100 audited scans at 5ms.
func clean(phase, tenant string) streamResult {
	return streamResult{phase: phase, tenant: tenant, tally: tally{
		ok: 100, audited: 100, scanned: 100, lat: ms(100, 5)}}
}

// TestJudge has one row per way a run can fail its thresholds, plus a
// passing run that must produce no violation at all. Each failing row
// starts from a clean run and breaks exactly one property.
func TestJudge(t *testing.T) {
	strict := thresholds{
		MaxP99Ms: ptr(50), MaxShedRate: ptr(0.05), MaxErrorRate: ptr(0),
		MinCorrectness: ptr(1), FairnessMaxDelta: ptr(0.1), MaxJobFailureRate: ptr(0),
	}
	withP99 := func(p99 float64) thresholds { th := strict; th.MaxP99Ms = &p99; return th }
	for _, tc := range []struct {
		name    string
		results []streamResult
		t       thresholds
		want    string // substring of the only violation; "" = pass
	}{
		{name: "clean run passes", results: []streamResult{clean("a", "acme")}, t: strict},
		{
			name: "p99 over its bound",
			results: []streamResult{{phase: "a", tenant: "acme", tally: tally{
				ok: 100, lat: append(ms(98, 5), ms(2, 80)...)}}},
			t: strict, want: "p99 80.0ms > max 50.0ms",
		},
		{
			// The negative drill: -scenario-max-p99 1ns against a healthy run.
			name: "negative drill: 1ns p99 bound", results: []streamResult{clean("a", "acme")},
			t: withP99(1e-6), want: "p99 5.0ms > max 0.0ms",
		},
		{
			name: "shed rate over its bound",
			results: []streamResult{{phase: "a", tenant: "acme", tally: tally{
				ok: 90, shed: 10, lat: ms(90, 5)}}},
			t: strict, want: "compliant shed rate 0.1000 > max 0.0500",
		},
		{
			name: "error rate over its bound",
			results: []streamResult{{phase: "a", tenant: "acme", tally: tally{
				ok: 99, failed: 1, lat: ms(99, 5)}}},
			t: strict, want: "compliant error rate 0.0100 > max 0.0000 (1 of 100 requests failed)",
		},
		{
			// The anonymous drill: every request to an auth-enforcing
			// replica is a 401. No threshold is needed to fail it.
			name:    "negative drill: anonymous burst, all rejected",
			results: []streamResult{{phase: "a", tenant: "anon", tally: tally{failed: 4}}},
			t:       thresholds{}, want: "no compliant request succeeded (0 shed, 4 failed)",
		},
		{
			name: "correctness under its floor",
			results: []streamResult{{phase: "a", tenant: "acme", tally: tally{
				ok: 100, audited: 100, incorrect: 1, lat: ms(100, 5)}}},
			t: strict, want: "correctness 0.9900 < min 1.0000 (1 of 100 scans disagreed)",
		},
		{
			name: "fairness: contended shed rate degrades past the bound",
			results: []streamResult{
				clean("baseline", "acme"),
				{phase: "contention", tenant: "acme", tally: tally{ok: 80, shed: 20, lat: ms(80, 5)}},
				{phase: "contention", tenant: "noisy", noisy: true, tally: tally{ok: 10, shed: 990}},
			},
			t: thresholds{FairnessMaxDelta: ptr(0.1)}, want: "fairness delta 0.2000 > max 0.1000",
		},
		{
			name: "fairness: the noisy tenant's own sheds never count",
			results: []streamResult{
				clean("baseline", "acme"),
				clean("contention", "acme"),
				{phase: "contention", tenant: "noisy", noisy: true, tally: tally{ok: 10, shed: 990, failed: 5}},
			},
			t: strict,
		},
		{
			name: "429 without a valid Retry-After, noisy stream included",
			results: []streamResult{
				clean("a", "acme"),
				{phase: "a", tenant: "noisy", noisy: true, tally: tally{shed: 3, badRetryAfter: 1}},
			},
			t: strict, want: "1 429 responses lacked an integer Retry-After >= 1",
		},
		{
			name:    "no compliant traffic at all",
			results: []streamResult{{phase: "a", tenant: "noisy", noisy: true, tally: tally{ok: 5}}},
			t:       thresholds{}, want: "no compliant request succeeded (0 shed, 0 failed)",
		},
		{
			name: "attack-job failure rate over its bound",
			results: []streamResult{
				clean("a", "acme"),
				{phase: "a", tenant: "acme", tally: tally{ok: 4, jobsDone: 3, jobsFailed: 1}},
			},
			t: strict, want: "attack-job failure rate 0.2500 > max 0.0000 (1 of 4 jobs failed)",
		},
		{
			name: "failed jobs pass when the fault drill leaves the bound unset",
			results: []streamResult{
				clean("a", "acme"),
				{phase: "a", tenant: "acme", tally: tally{ok: 3, jobsDone: 1, jobsFailed: 2}},
			},
			t: thresholds{MaxErrorRate: ptr(0)},
		},
	} {
		got := judge(summarize(tc.results), tc.t)
		switch {
		case tc.want == "" && len(got) != 0:
			t.Errorf("%s: unexpected violations %q", tc.name, got)
		case tc.want != "" && (len(got) != 1 || !strings.Contains(string(got[0]), tc.want)):
			t.Errorf("%s: violations %q, want exactly one containing %q", tc.name, got, tc.want)
		}
	}
}

// metricsDoc builds a replica /metrics document with the counters the
// cross-check reads.
func metricsDoc(scans, streamed, streamedBytes, reloads int64) *server.MetricsDoc {
	d := &server.MetricsDoc{Metrics: &server.Metrics{}}
	d.ScanRequests.Store(scans)
	d.ScansStreamed.Store(streamed)
	d.StreamedBytes.Store(streamedBytes)
	d.Reloads.Store(reloads)
	return d
}

// TestCrossCheck: the server's counters, diffed over the run, must cover
// what the client saw. Earlier traffic in the pre snapshot never counts.
func TestCrossCheck(t *testing.T) {
	const mib = 1 << 20
	results := []streamResult{
		{tally: tally{scanned: 100, streamed: 2}},
		{noisy: true, tally: tally{scanned: 20}},
	}
	pre := metricsDoc(1000, 5, 5*mib, 1)
	for _, tc := range []struct {
		name string
		post *server.MetricsDoc
		want string
	}{
		{name: "counters cover the run", post: metricsDoc(1120, 7, 7*mib, 4)},
		{name: "scan_requests short", post: metricsDoc(1119, 7, 7*mib, 4),
			want: "scan_requests rose by 119 over the run, expected >= 120"},
		{name: "scans_streamed short", post: metricsDoc(1120, 6, 7*mib, 4),
			want: "scans_streamed rose by 1 over the run, expected >= 2"},
		{name: "streamed_bytes short", post: metricsDoc(1120, 7, 7*mib-1, 4),
			want: "streamed_bytes rose by 2097151 over the run, expected >= 2097152"},
		{name: "reloads short of the swaps issued", post: metricsDoc(1120, 7, 7*mib, 3),
			want: "reloads rose by 2 over the run, expected >= 3"},
	} {
		got := crossCheck(pre, tc.post, results, mib, 3)
		switch {
		case tc.want == "" && len(got) != 0:
			t.Errorf("%s: unexpected violations %q", tc.name, got)
		case tc.want != "" && (len(got) != 1 || !strings.Contains(string(got[0]), tc.want)):
			t.Errorf("%s: violations %q, want exactly one containing %q", tc.name, got, tc.want)
		}
	}
}

// TestAuditReloads: every swap lands, scans only ever carry a served
// generation, and /healthz names the last one.
func TestAuditReloads(t *testing.T) {
	served := map[string]bool{"v0": true, "v1": true, "v2": true}
	ok := reloadLog{served: served, last: "v2", swaps: 2}
	for _, tc := range []struct {
		name    string
		want    int
		log     reloadLog
		seen    []string
		healthz string
		viol    string
	}{
		{name: "clean", want: 2, log: ok, seen: []string{"v0", "v2", "v1"}, healthz: "v2"},
		{name: "no reloads: the starting generation throughout", want: 0,
			log: reloadLog{served: map[string]bool{"v0": true}, last: "v0"}, seen: []string{"v0"}, healthz: "v0"},
		{name: "unserved model version", want: 2, log: ok, seen: []string{"v1", "v9", ""}, healthz: "v2",
			viol: `scan responses carried unserved model versions ["" "v9"]`},
		{name: "/healthz disagrees with the last swap", want: 2, log: ok, seen: []string{"v2"}, healthz: "v1",
			viol: "/healthz model_version v1, want v2"},
		{name: "too few swaps fired", want: 3, log: ok, seen: []string{"v2"}, healthz: "v2",
			viol: "issued 2 of 3 reloads"},
		{name: "a swap failed", want: 3,
			log:  reloadLog{served: served, last: "v2", swaps: 2, err: errors.New("reload 3: status 422: certification refused")},
			seen: []string{"v2"}, healthz: "v2", viol: "reload 3: status 422"},
	} {
		got := auditReloads(tc.want, tc.log, tc.seen, tc.healthz)
		switch {
		case tc.viol == "" && len(got) != 0:
			t.Errorf("%s: unexpected violations %q", tc.name, got)
		case tc.viol != "" && (len(got) != 1 || !strings.Contains(string(got[0]), tc.viol)):
			t.Errorf("%s: violations %q, want exactly one containing %q", tc.name, got, tc.viol)
		}
	}
}

// TestQuantileNearestRank: p-th quantile of n values is the ceil(p·n)-th
// smallest, so p99 of the 120-scan smoke is the 119th value and p99 of
// 100 values the 99th — never one rank low.
func TestQuantileNearestRank(t *testing.T) {
	seq := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(i + 1) // value k is the k-th smallest
		}
		return out
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want time.Duration
	}{
		{1, 0.50, 1}, {1, 0.99, 1},
		{100, 0.50, 50}, {100, 0.99, 99}, {100, 1, 100},
		{120, 0.50, 60}, {120, 0.99, 119},
		{0, 0.99, 0},
	} {
		if got := quantile(seq(tc.n), tc.q); got != tc.want {
			t.Errorf("quantile(n=%d, q=%v) = %d, want %d", tc.n, tc.q, got, tc.want)
		}
	}
}

// TestParseScenarioRejectsUnknownKeys: every threshold is optional, so a
// misspelled key would otherwise parse cleanly and gate nothing.
func TestParseScenarioRejectsUnknownKeys(t *testing.T) {
	const ok = `{"name": "x", "tenants": {"a": ""},
		"phases": [{"name": "p", "reloads": 1, "streams": [{"tenant": "a", "clients": 1, "requests": 2}]}],
		"thresholds": {"max_p99_ms": 5, "max_job_failure_rate": 0, "min_hit_ratio": 0.9}}`
	sc, err := parseScenario([]byte(ok))
	if err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	if sc.Thresholds.MaxP99Ms == nil || *sc.Thresholds.MaxP99Ms != 5 || sc.Phases[0].Reloads != 1 {
		t.Fatalf("parsed %+v", sc)
	}
	for name, doc := range map[string]string{
		"threshold typo": strings.Replace(ok, `"max_p99_ms"`, `"max_p99"`, 1),
		"stream typo":    strings.Replace(ok, `"clients"`, `"client"`, 1),
		"phase typo":     strings.Replace(ok, `"reloads"`, `"reload"`, 1),
	} {
		if _, err := parseScenario([]byte(doc)); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("%s: err = %v, want an unknown-field error", name, err)
		}
	}
}
