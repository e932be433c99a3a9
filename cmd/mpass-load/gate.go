// The verdict half of a scenario run. Everything here is a pure function of
// what the run observed — stream tallies, /metrics snapshots, the reload
// ledger — so each way a run can fail is a table row in gate_test.go rather
// than a drill that has to be provoked against a live server.
package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"mpass/internal/gateway"
	"mpass/internal/server"
)

// tally is one traffic stream's outcome count. ok, shed and failed
// partition the requests; the other counts refine them.
type tally struct {
	ok, shed, failed     int64
	badRetryAfter        int64           // 429s without an integer Retry-After >= 1
	audited, incorrect   int64           // 200 scans checked / disagreeing with an earlier response
	jobsDone, jobsFailed int64           // attack jobs by terminal state; both also count as ok
	scanned, streamed    int64           // 200s from /v1/scan, and the streamed uploads among them
	lat                  []time.Duration // scan and cachemiss latencies
}

// add folds o into t.
func (t *tally) add(o tally) {
	t.ok += o.ok
	t.shed += o.shed
	t.failed += o.failed
	t.badRetryAfter += o.badRetryAfter
	t.audited += o.audited
	t.incorrect += o.incorrect
	t.jobsDone += o.jobsDone
	t.jobsFailed += o.jobsFailed
	t.scanned += o.scanned
	t.streamed += o.streamed
	t.lat = append(t.lat, o.lat...)
}

// streamResult is one stream's tally within one phase.
type streamResult struct {
	phase  string
	tenant string
	noisy  bool // expected to be shed; excluded from every SLO statistic
	tally
}

// summary aggregates the compliant (non-noisy) streams of a run; only
// badRetryAfter counts every stream, the noisy tenant's 429s included.
type summary struct {
	tally
	total                          int64
	p50, p99                       time.Duration
	shedRate, errRate, correctness float64
	fairnessDelta, jobFailureRate  float64
}

func summarize(results []streamResult) summary {
	var s summary
	var badRetryAfter int64
	noisyPhases := map[string]bool{}
	for _, r := range results {
		badRetryAfter += r.badRetryAfter
		if r.noisy {
			noisyPhases[r.phase] = true
			continue
		}
		s.add(r.tally)
	}
	s.badRetryAfter = badRetryAfter
	sort.Slice(s.lat, func(i, j int) bool { return s.lat[i] < s.lat[j] })
	s.p50, s.p99 = quantile(s.lat, 0.50), quantile(s.lat, 0.99)
	s.total = s.ok + s.shed + s.failed
	s.correctness = 1
	if s.total > 0 {
		s.shedRate = float64(s.shed) / float64(s.total)
		s.errRate = float64(s.failed) / float64(s.total)
	}
	if s.audited > 0 {
		s.correctness = float64(s.audited-s.incorrect) / float64(s.audited)
	}
	if jobs := s.jobsDone + s.jobsFailed; jobs > 0 {
		s.jobFailureRate = float64(s.jobsFailed) / float64(jobs)
	}

	// Fairness: for each compliant tenant, how much does its shed rate
	// degrade in phases where a noisy tenant also runs, versus phases
	// without one? The bound is the per-tenant isolation contract.
	type rates struct{ shed, total int64 }
	contended, baseline := map[string]*rates{}, map[string]*rates{}
	for _, r := range results {
		if r.noisy {
			continue
		}
		m := baseline
		if noisyPhases[r.phase] {
			m = contended
		}
		rt := m[r.tenant]
		if rt == nil {
			rt = &rates{}
			m[r.tenant] = rt
		}
		rt.shed += r.shed
		rt.total += r.ok + r.shed + r.failed
	}
	for tenant, c := range contended {
		b := baseline[tenant]
		if b == nil || b.total == 0 || c.total == 0 {
			continue
		}
		delta := float64(c.shed)/float64(c.total) - float64(b.shed)/float64(b.total)
		s.fairnessDelta = max(s.fairnessDelta, delta)
	}
	return s
}

// violation is one failed gate, worded for the operator reading the log.
type violation string

func violationf(format string, args ...any) violation {
	return violation(fmt.Sprintf(format, args...))
}

// judge applies the scenario's thresholds to the run's summary. Two gates
// need no threshold: every 429 must carry a legal Retry-After, and some
// compliant request must succeed.
func judge(s summary, t thresholds) []violation {
	var v []violation
	if s.badRetryAfter > 0 {
		v = append(v, violationf("%d 429 responses lacked an integer Retry-After >= 1", s.badRetryAfter))
	}
	if s.ok == 0 {
		v = append(v, violationf("no compliant request succeeded (%d shed, %d failed)", s.shed, s.failed))
	}
	if t.MaxP99Ms != nil && float64(s.p99)/1e6 > *t.MaxP99Ms {
		v = append(v, violationf("p99 %.1fms > max %.1fms", float64(s.p99)/1e6, *t.MaxP99Ms))
	}
	if t.MaxShedRate != nil && s.shedRate > *t.MaxShedRate {
		v = append(v, violationf("compliant shed rate %.4f > max %.4f", s.shedRate, *t.MaxShedRate))
	}
	if t.MaxErrorRate != nil && s.errRate > *t.MaxErrorRate {
		v = append(v, violationf("compliant error rate %.4f > max %.4f (%d of %d requests failed)",
			s.errRate, *t.MaxErrorRate, s.failed, s.total))
	}
	if t.MinCorrectness != nil && s.correctness < *t.MinCorrectness {
		v = append(v, violationf("correctness %.4f < min %.4f (%d of %d scans disagreed)",
			s.correctness, *t.MinCorrectness, s.incorrect, s.audited))
	}
	if t.FairnessMaxDelta != nil && s.fairnessDelta > *t.FairnessMaxDelta {
		v = append(v, violationf("fairness delta %.4f > max %.4f", s.fairnessDelta, *t.FairnessMaxDelta))
	}
	if t.MaxJobFailureRate != nil && s.jobFailureRate > *t.MaxJobFailureRate {
		v = append(v, violationf("attack-job failure rate %.4f > max %.4f (%d of %d jobs failed)",
			s.jobFailureRate, *t.MaxJobFailureRate, s.jobsFailed, s.jobsDone+s.jobsFailed))
	}
	return v
}

// crossCheck reconciles the client's view with the server's own counters,
// diffed over the run: every 200 scan must show in scan_requests, every
// streamed upload in scans_streamed and (at streamBytes each) in
// streamed_bytes, and every model swap in reloads. All streams count here,
// noisy ones included — the server saw them all.
func crossCheck(pre, post *server.MetricsDoc, results []streamResult, streamBytes int64, swaps int) []violation {
	var scanned, streamed int64
	for _, r := range results {
		scanned += r.scanned
		streamed += r.streamed
	}
	var v []violation
	check := func(key string, got, want int64) {
		if got < want {
			v = append(v, violationf("/metrics %s rose by %d over the run, expected >= %d", key, got, want))
		}
	}
	check("scan_requests", post.ScanRequests.Load()-pre.ScanRequests.Load(), scanned)
	if streamed > 0 {
		check("scans_streamed", post.ScansStreamed.Load()-pre.ScansStreamed.Load(), streamed)
		check("streamed_bytes", post.StreamedBytes.Load()-pre.StreamedBytes.Load(), streamed*streamBytes)
	}
	check("reloads", post.Reloads.Load()-pre.Reloads.Load(), int64(swaps))
	return v
}

// reloadLog is the reload audit's ledger for one plain-replica run: every
// model generation the server legitimately served (the starting one plus
// each swap's result), the latest of them, and the swaps that landed.
type reloadLog struct {
	served map[string]bool
	last   string
	swaps  int
	err    error // the first swap that failed; no later swap is attempted
}

// auditReloads checks the ledger after the run: all want swaps landed,
// every model version a scan response carried was one the server really
// served, and /healthz (healthz) agrees with the last of them.
func auditReloads(want int, l reloadLog, seen []string, healthz string) []violation {
	var v []violation
	if l.err != nil {
		v = append(v, violationf("%v", l.err))
	} else if l.swaps < want {
		v = append(v, violationf("issued %d of %d reloads: too few requests to space them", l.swaps, want))
	}
	var bad []string
	for _, ver := range seen {
		if ver == "" || !l.served[ver] {
			bad = append(bad, ver)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		v = append(v, violationf("scan responses carried unserved model versions %q", bad))
	}
	if healthz != l.last {
		v = append(v, violationf("/healthz model_version %s, want %s (the last version served)", healthz, l.last))
	}
	return v
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

// quantile reads the nearest-rank q-th quantile from an ascending slice:
// the ceil(q·n)-th smallest value, so p99 of 120 latencies is the 119th.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon absorbs binary rounding in q·n (0.99·100 must rank 99).
	rank := int(math.Ceil(q*float64(len(sorted)) - 1e-9))
	return sorted[min(max(rank, 1), len(sorted))-1]
}
