package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpass/internal/core"
	"mpass/internal/detect"
	"mpass/internal/engine"
)

// countingDetector is a stubDetector whose ScoreBatch counts the samples it
// scores, so a test can see which engines a flush asked for which rows.
type countingDetector struct {
	*stubDetector
	rows atomic.Int64
}

func (c *countingDetector) ScoreBatch(raws [][]byte) []float64 {
	c.rows.Add(int64(len(raws)))
	return detect.ScoreAll(c.stubDetector, raws, 1)
}

// probe is one oracle answer as a steppedAttack saw it.
type probe struct {
	det bool
	err error
}

// steppedAttack is an AttackFunc the test drives query by query: it asks
// the oracle about each body received on in, reports the answer on out,
// and finishes once in is closed.
func steppedAttack(in <-chan []byte, out chan<- probe) AttackFunc {
	return func(ctx context.Context, _ detect.Detector, _ []byte, oracle core.Oracle, _ int64) (*core.Result, error) {
		n := 0
		for raw := range in {
			det, err := core.QueryOracle(ctx, oracle, raw)
			out <- probe{det, err}
			n++
		}
		return &core.Result{Queries: n, Rounds: 1}, nil
	}
}

// ask sends one query to a steppedAttack job and waits for its answer.
func ask(t *testing.T, in chan<- []byte, out <-chan probe, raw []byte) probe {
	t.Helper()
	in <- raw
	select {
	case p := <-out:
		return p
	case <-time.After(5 * time.Second):
		t.Fatal("oracle query never answered")
		return probe{}
	}
}

// submitAttack starts an attack job on target and returns its poll URL.
func submitAttack(t *testing.T, base, target string, raw []byte) string {
	t.Helper()
	resp, body := postBytes(t, base+"/v1/attack?target="+target, raw)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("attack: status %d (%s)", resp.StatusCode, body)
	}
	var ar attackResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	return base + ar.Poll
}

type scanResult struct {
	resp scanResponse
	err  error
}

// scanAsync posts a scan from a background goroutine and delivers the
// decoded response on the returned channel.
func scanAsync(url string, raw []byte) <-chan scanResult {
	done := make(chan scanResult, 1)
	go func() {
		var r scanResult
		resp, err := http.Post(url+"/v1/scan", "application/octet-stream", bytes.NewReader(raw))
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&r.resp)
			resp.Body.Close()
		}
		r.err = err
		done <- r
	}()
	return done
}

// TestOracleQueriesScoreOnlyTheirTarget pins the one-engine oracle row: an
// attack job's query is scored by its target alone, while a scan coalesced
// into the same flush still reaches every engine.
func TestOracleQueriesScoreOnlyTheirTarget(t *testing.T) {
	dets := []*countingDetector{
		{stubDetector: &stubDetector{name: "A", thr: 0.5}},
		{stubDetector: &stubDetector{name: "B", thr: 0.5}},
		{stubDetector: &stubDetector{name: "C", thr: 0.5}},
	}
	// entered has room for every flush this test makes, so engine A never
	// blocks on it once the gate is released for good.
	gate := &gatedDetector{Detector: dets[0], entered: make(chan int, 64), release: make(chan struct{})}
	in, out := make(chan []byte), make(chan probe, 1)
	s, ts := newTestServer(t, Config{
		Detectors: []detect.Detector{gate, dets[1], dets[2]},
		Attack:    steppedAttack(in, out),
	})
	// Cleanups run last-in first-out: the job and any parked flush are let
	// go before the server drains.
	releaseGate := sync.OnceFunc(func() { close(gate.release) })
	t.Cleanup(releaseGate)
	stopJob := sync.OnceFunc(func() { close(in) })
	t.Cleanup(stopJob)
	rows := func() [3]int64 {
		return [3]int64{dets[0].rows.Load(), dets[1].rows.Load(), dets[2].rows.Load()}
	}
	entered := func() int {
		select {
		case n := <-gate.entered:
			return n
		case <-time.After(5 * time.Second):
			t.Fatal("engine A never scored")
			return 0
		}
	}

	// Park the dispatcher inside a scan's flush, then queue a second scan
	// and a query on B behind it: both land in the next flush.
	first := scanAsync(ts.URL, []byte("first scan"))
	if n := entered(); n != 1 {
		t.Fatalf("first flush gave engine A %d rows, want 1", n)
	}
	poll := submitAttack(t, ts.URL, "B", []byte("victim"))
	query := []byte("coalesced query")
	in <- query
	second := []byte("coalesced scan")
	secondDone := scanAsync(ts.URL, second)
	deadline := time.Now().Add(5 * time.Second)
	for s.batcher.queued() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 2 requests queued", s.batcher.queued())
		}
		time.Sleep(time.Millisecond)
	}
	gate.release <- struct{}{}
	if n := entered(); n != 1 {
		t.Fatalf("coalesced flush gave engine A %d rows, want 1 (the scan, not the query on B)", n)
	}
	gate.release <- struct{}{}
	if r := <-first; r.err != nil || len(r.resp.Results) != 3 {
		t.Fatalf("first scan: %+v (%v)", r.resp, r.err)
	}
	sr := <-secondDone
	if sr.err != nil || len(sr.resp.Results) != 3 {
		t.Fatalf("coalesced scan: %+v (%v)", sr.resp, sr.err)
	}
	for i, r := range sr.resp.Results {
		if want := dets[i].Score(second); r.Model != dets[i].name || r.Score != want {
			t.Fatalf("coalesced scan result %d = %+v, want %s scoring %v", i, r, dets[i].name, want)
		}
	}
	select {
	case p := <-out:
		if p.err != nil || p.det != dets[1].Label(query) {
			t.Fatalf("coalesced query answered (%v, %v), want (%v, nil)", p.det, p.err, dets[1].Label(query))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coalesced query never answered")
	}
	if got, want := rows(), [3]int64{2, 3, 2}; got != want {
		t.Fatalf("ScoreBatch rows after two scans and one query on B = %v, want %v", got, want)
	}

	// Unparked, each further query costs its target one row and the other
	// engines nothing.
	releaseGate()
	for i := 0; i < 4; i++ {
		raw := []byte(fmt.Sprintf("query %d", i))
		before := rows()
		p := ask(t, in, out, raw)
		if p.err != nil || p.det != dets[1].Label(raw) {
			t.Fatalf("query %d answered (%v, %v), want (%v, nil)", i, p.det, p.err, dets[1].Label(raw))
		}
		after := rows()
		if got, want := [3]int64{after[0] - before[0], after[1] - before[1], after[2] - before[2]}, [3]int64{0, 1, 0}; got != want {
			t.Fatalf("query %d on B added rows %v, want %v", i, got, want)
		}
	}
	stopJob()
	if v := pollTerminal(t, poll); v.State != JobDone {
		t.Fatalf("job state %s (%s), want done", v.State, v.Error)
	}
	if got := s.metrics.OracleQueries.Load(); got != 5 {
		t.Fatalf("OracleQueries = %d, want 5", got)
	}
}

// TestOracleBypassesScoreCache pins that oracle traffic neither reads nor
// fills the score cache: querying a body that was just scanned leaves the
// hit and miss counters and the cache's contents as they were.
func TestOracleBypassesScoreCache(t *testing.T) {
	in, out := make(chan []byte), make(chan probe, 1)
	s, ts := newTestServer(t, Config{Attack: steppedAttack(in, out)})
	stopJob := sync.OnceFunc(func() { close(in) })
	t.Cleanup(stopJob)

	raw := []byte("scanned, then queried")
	resp, body := postBytes(t, ts.URL+"/v1/scan", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scan: status %d (%s)", resp.StatusCode, body)
	}
	var scanned scanResponse
	if err := json.Unmarshal(body, &scanned); err != nil {
		t.Fatal(err)
	}
	hits, misses, entries := s.metrics.CacheHits.Load(), s.metrics.CacheMisses.Load(), s.cache.len()

	poll := submitAttack(t, ts.URL, "B", raw)
	for i := 0; i < 2; i++ {
		if p := ask(t, in, out, raw); p.err != nil || p.det != scanned.Results[1].Malicious {
			t.Fatalf("query %d answered (%v, %v), want (%v, nil)", i, p.det, p.err, scanned.Results[1].Malicious)
		}
	}
	stopJob()
	if v := pollTerminal(t, poll); v.State != JobDone {
		t.Fatalf("job state %s (%s), want done", v.State, v.Error)
	}
	if h, m, n := s.metrics.CacheHits.Load(), s.metrics.CacheMisses.Load(), s.cache.len(); h != hits || m != misses || n != entries {
		t.Fatalf("oracle queries moved the cache: hits %d->%d, misses %d->%d, entries %d->%d",
			hits, h, misses, m, entries, n)
	}

	// The scan's entry is intact: a rescan hits it and serves every engine.
	resp, body = postBytes(t, ts.URL+"/v1/scan", raw)
	var again scanResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &again) != nil {
		t.Fatalf("rescan: status %d (%s)", resp.StatusCode, body)
	}
	if !again.Cached || len(again.Results) != len(scanned.Results) {
		t.Fatalf("rescan cached=%v with %d results, want a cached full scan", again.Cached, len(again.Results))
	}
	for i := range again.Results {
		if again.Results[i] != scanned.Results[i] {
			t.Fatalf("rescan result %d = %+v, want %+v", i, again.Results[i], scanned.Results[i])
		}
	}
}

// TestOracleAcrossReloads pins the oracle's reload edges mid-job: a reload
// that reorders the set still yields the target's own label, and one that
// drops the target fails the query as no longer resident without scoring
// any engine — in particular not engine 0, which a lookup that ignored a
// missing name would land on.
func TestOracleAcrossReloads(t *testing.T) {
	target := &fakeEngine{name: "T", version: "t1", score: 0.75} // detects
	other := &fakeEngine{name: "U", version: "u1", score: 0.25}  // does not
	var pending atomic.Pointer[engine.Set]
	in, out := make(chan []byte), make(chan probe, 1)
	_, ts := registryServer(t, Config{
		Attack: steppedAttack(in, out),
		Reload: func(string) (*engine.Set, error) { return pending.Load(), nil },
		// One attempt and a breaker at one failure surface the query's own
		// error instead of a fail-closed "detected".
		OracleAttempts:   1,
		OracleBreakAfter: 1,
	}, engineSet(t, other, target))
	stopJob := sync.OnceFunc(func() { close(in) })
	t.Cleanup(stopJob)
	reload := func(set *engine.Set) {
		t.Helper()
		pending.Store(set)
		if resp, body := postBytes(t, ts.URL+"/v1/models/reload", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("reload: status %d (%s)", resp.StatusCode, body)
		}
	}
	// query asks once and reports the rows it cost T and U.
	query := func(raw string) (probe, [2]int64) {
		t.Helper()
		t0, u0 := target.rows.Load(), other.rows.Load()
		p := ask(t, in, out, []byte(raw))
		return p, [2]int64{target.rows.Load() - t0, other.rows.Load() - u0}
	}

	poll := submitAttack(t, ts.URL, "T", []byte("victim"))
	if p, cost := query("before"); p.err != nil || !p.det || cost != [2]int64{1, 0} {
		t.Fatalf("query before reload: (%v, %v) costing T,U %v rows; want (true, nil) costing [1 0]", p.det, p.err, cost)
	}

	reload(engineSet(t, target, other)) // T moves from index 1 to 0
	if p, cost := query("reordered"); p.err != nil || !p.det || cost != [2]int64{1, 0} {
		t.Fatalf("query after reorder: (%v, %v) costing T,U %v rows; want (true, nil) costing [1 0]", p.det, p.err, cost)
	}

	reload(engineSet(t, other)) // T is gone; U is engine 0
	p, cost := query("dropped")
	if p.err == nil || !strings.Contains(p.err.Error(), "no longer resident") {
		t.Fatalf("query after drop: (%v, %v), want a no-longer-resident error", p.det, p.err)
	}
	if cost != [2]int64{0, 0} {
		t.Fatalf("query after drop cost T,U %v rows, want none", cost)
	}
	stopJob()
	pollTerminal(t, poll)
}
