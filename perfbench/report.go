package main

import (
	"fmt"
	"sort"
)

// counters are the replicas' and gateway's /metrics counters the report
// takes deltas of, read in-process from the same counter sets.
type counters struct {
	hits, misses, batches, batchedRaws, scanRetries int64
}

func readCounters(st *stack) counters {
	var c counters
	for _, r := range st.replicas {
		m := r.srv.Metrics()
		c.hits += m.CacheHits.Load()
		c.misses += m.CacheMisses.Load()
		c.batches += m.Batches.Load()
		c.batchedRaws += m.BatchedRaws.Load()
	}
	if st.gw != nil {
		c.scanRetries = st.gw.Metrics().ScanRetries.Load()
	}
	return c
}

// The metrics a run's JSON line carries. Each is measured on every
// workload, so every run reports all of them; the workload-specific ones
// are printed in the report above the line.
var (
	endToEndJSON = []string{"setup_s", "scan_rps", "scan_p50_ms", "scan_p99_ms", "scan_correct"}
	perLayerJSON = []string{
		"server.handler_us_p50", "server.handler_us_p99", "server.self_us_p50",
		"server.cache_hit_ratio", "server.batch_size_mean",
		"net.request_us_p50", "net.response_us_p50",
		"trace.unaccounted_ratio", "trace.overhead_ratio",
	}
)

// maxUnaccounted is the share of client time the spans may leave
// unexplained before a traced run fails.
const maxUnaccounted = 0.10

// metricSet accumulates a report's metrics and the percentiles it refused.
type metricSet struct {
	ms      []metric
	refused []string
}

func (s *metricSet) add(name string, v float64, unit string, n int) {
	s.ms = append(s.ms, metric{Name: name, Value: v, Unit: unit, N: n})
}

// pct adds the q-percentile of samples scaled by scale, or records why it
// was refused.
func (s *metricSet) pct(name string, samples []float64, q, scale float64, unit string) {
	v, err := percentile(samples, q)
	if err != nil {
		s.refused = append(s.refused, name+": "+err.Error())
		return
	}
	s.add(name, v.Value*scale, unit, v.N)
}

func (s *metricSet) get(name string) (metric, bool) {
	for _, m := range s.ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// pick returns the named metrics, failing on any that were not measured.
func (s *metricSet) pick(names []string) ([]metric, error) {
	out := make([]metric, 0, len(names))
	for _, n := range names {
		m, ok := s.get(n)
		if !ok {
			return nil, fmt.Errorf("metric %s not measured (%v)", n, s.refused)
		}
		out = append(out, m)
	}
	return out, nil
}

// report prints the workload's metrics and builds its JSON result. base is
// the untraced phase of a traced run (nil for an untraced run).
func (e *env) report(w workload, p *phase, setupS []float64, base *phase, rec *recorder) (*result, error) {
	fmt.Printf("workload %s · seed %d · %d s · %d scan clients · trace %v\n", w.name, e.seed, e.seconds, e.scanClients(w), rec != nil)
	var ee metricSet
	if setupS != nil {
		ee.add("setup_s", median(setupS), "s", len(setupS))
	}
	sc := p.scans
	scanMetrics(&ee, p.rounds)
	correct := sc.audited > 0 && sc.wrong == 0
	if sc.audited > 0 {
		ee.add("scan_correct", float64(sc.audited-sc.wrong)/float64(sc.audited), "ratio", sc.audited)
	}
	t := sc.t
	if c := p.camp; c != nil {
		t.merge(c.t)
		correct = correct && len(p.reverify) == 0
		ok := attackMetrics(&ee, c)
		correct = correct && ok
		for _, msg := range c.errors {
			fmt.Printf("  attack error: %s\n", msg)
		}
	}
	ee.add("error_ratio", t.errorRatio(), "ratio", int(t.Attempted))
	printMetrics("end-to-end", ee.ms)
	fmt.Printf("    operations: %d attempted, %d ok, %d shed, %d failed\n", t.Attempted, t.OK, t.Shed, t.Failed)
	if sc.wrong > 0 {
		fmt.Printf("  %d of %d audited scans were wrong\n", sc.wrong, sc.audited)
	}
	if len(p.reverify) > 0 {
		fmt.Printf("  sandbox re-run disagrees with the server on %v\n", p.reverify)
	}

	res := &result{t: t}
	var err error
	if rec == nil {
		res.metrics, err = ee.pick(endToEndJSON)
	} else {
		var pl metricSet
		unaccounted := layerMetrics(&pl, w, p, base, rec, e.ref.Names())
		printMetrics("per-layer", pl.ms)
		if unaccounted > maxUnaccounted {
			fmt.Printf("  spans leave %.1f%% of client time unexplained (limit %.0f%%)\n", 100*unaccounted, 100*maxUnaccounted)
			correct = false
		}
		for _, r := range pl.refused {
			fmt.Printf("  not reported: %s\n", r)
		}
		res.metrics, err = pl.pick(perLayerJSON)
	}
	for _, r := range ee.refused {
		fmt.Printf("  not reported: %s\n", r)
	}
	if err != nil {
		return nil, err
	}
	res.correct = correct
	return res, nil
}

// scanMetrics adds scan_rps, scan_p50_ms and scan_p99_ms, each the median
// over rounds of the round's own figure.
func scanMetrics(s *metricSet, rs []roundStat) {
	var rps []float64
	n := 0
	for _, r := range rs {
		rps = append(rps, float64(r.ok)/r.secs)
		n += len(r.lat)
	}
	s.add("scan_rps", median(rps), "1/s", n)
	s.roundPct("scan_p50_ms", rs, 0.50)
	s.roundPct("scan_p99_ms", rs, 0.99)
}

// roundPct adds the median over rounds of each round's q-percentile, or
// records why a round refused it.
func (s *metricSet) roundPct(name string, rs []roundStat, q float64) {
	var vs []float64
	n := 0
	for _, r := range rs {
		v, err := percentile(r.lat, q)
		if err != nil {
			s.refused = append(s.refused, name+": "+err.Error())
			return
		}
		vs = append(vs, v.Value)
		n += v.N
	}
	s.add(name, median(vs), "ms", n)
}

// attackMetrics adds the campaign's metrics and reports whether every
// successful AE was judged functional.
func attackMetrics(s *metricSet, c *campaign) bool {
	var success, valid, queries, succQueries int
	var elapsed float64
	for _, j := range c.jobs {
		queries += *j.view.Queries
		elapsed += j.view.ElapsedMs
		if *j.view.Success {
			success++
			succQueries += *j.view.Queries
			if j.view.Functional != nil && *j.view.Functional {
				valid++
			}
		}
	}
	s.add("attack_jobs_per_s", float64(len(c.jobs))/c.wall.Seconds(), "1/s", len(c.jobs))
	if queries > 0 {
		s.add("attack_query_ms", elapsed/float64(queries), "ms", queries)
	}
	n := int(c.t.Attempted)
	if n > 0 {
		s.add("attack_asr", float64(success)/float64(n), "ratio", n)
	}
	if success > 0 {
		s.add("attack_avq", float64(succQueries)/float64(success), "queries", success)
		s.add("attack_valid", float64(valid)/float64(success), "ratio", success)
	}
	return valid == success
}

// reqSpans are one tagged request's spans across the tiers.
type reqSpans struct {
	client, send, recv, gwConn, gwHTTP, srvConn, srvHTTP *span
	rts                                                  []span
}

// front is the conn span of the tier the client talks to.
func (r *reqSpans) front() *span {
	if r.gwConn != nil {
		return r.gwConn
	}
	return r.srvConn
}

// hops are the loopback legs between the client and the front tier: from
// the client's last request write to the server's first read, and from the
// server's response write to the client's first response byte. Each is
// bounded by timestamps taken in the two wrappers on either side, and
// covers the socket and the wait for the reading goroutine to run.
func (r *reqSpans) hops() (req, resp ival, ok bool) {
	f := r.front()
	if f == nil || r.send == nil || r.recv == nil {
		return ival{}, ival{}, false
	}
	return ival{r.send.end, f.start}, ival{f.end, r.recv.start}, true
}

// all is every span of the request below the client span.
func (r *reqSpans) all() []ival {
	var out []ival
	for _, s := range []*span{r.send, r.recv, r.gwConn, r.gwHTTP, r.srvConn, r.srvHTTP} {
		if s != nil {
			out = append(out, s.ival())
		}
	}
	for _, s := range r.rts {
		out = append(out, s.ival())
	}
	if req, resp, ok := r.hops(); ok {
		out = append(out, req, resp)
	}
	return out
}

// flush is one batcher flush: the ScoreBatch spans of every engine.
type flush struct {
	first int64 // start of the first engine's ScoreBatch
	parts []ival
	total int64 // summed ScoreBatch time
}

// layerMetrics adds the per-layer metrics of the traced phase p and
// returns trace.unaccounted_ratio.
func layerMetrics(s *metricSet, w workload, p, base *phase, rec *recorder, engines []string) float64 {
	spans, members := rec.snapshot()
	reqs := map[int64]*reqSpans{}
	req := func(id int64) *reqSpans {
		r := reqs[id]
		if r == nil {
			r = &reqSpans{}
			reqs[id] = r
		}
		return r
	}
	flushes := map[int64]*flush{}
	engDur := map[int8]int64{}
	engN := map[int8]int64{}
	var computed int64
	var gradSum, gradCount, oracleSum int64
	var oracleMs []float64
	oracleKeys := map[uint64]bool{}
	attacks := map[uint64][]span{}
	for i := range spans {
		sp := &spans[i]
		switch sp.kind {
		case spanClient:
			req(sp.id).client = sp
		case spanClientSend:
			req(sp.id).send = sp
		case spanClientRecv:
			req(sp.id).recv = sp
		case spanGatewayConn:
			req(sp.id).gwConn = sp
		case spanGatewayHTTP:
			req(sp.id).gwHTTP = sp
		case spanServerConn:
			req(sp.id).srvConn = sp
		case spanServerHTTP:
			req(sp.id).srvHTTP = sp
		case spanReplicaRT:
			r := req(sp.id)
			r.rts = append(r.rts, *sp)
		case spanScoreBatch:
			d := sp.end - sp.start
			engDur[sp.eng] += d
			engN[sp.eng] += int64(sp.n)
			computed += int64(sp.n)
			f := flushes[sp.id]
			if f == nil {
				f = &flush{first: sp.start}
				flushes[sp.id] = f
			}
			f.parts = append(f.parts, sp.ival())
			f.total += d
		case spanGradient:
			gradSum += sp.end - sp.start
			gradCount++
		case spanOracle:
			oracleSum += sp.end - sp.start
			oracleMs = append(oracleMs, float64(sp.end-sp.start)/1e6)
			oracleKeys[sp.key] = true
		case spanAttack:
			attacks[sp.key] = append(attacks[sp.key], *sp)
		}
	}
	flushesOf := map[uint64][]int64{}
	for _, m := range members {
		flushesOf[m.key] = append(flushesOf[m.key], m.flush)
	}
	scanKeys := map[int64]uint64{}
	scanBodies := map[uint64]bool{}
	p.keys.Range(func(k, v any) bool {
		scanKeys[k.(int64)] = v.(uint64)
		scanBodies[v.(uint64)] = true
		return true
	})

	// Replica handler, self time and batch wait of every traced scan.
	var handler, self, wait, gwSelf, rtt, uncovered, client, hopReq, hopResp []float64
	for id, r := range reqs {
		if r.client != nil {
			c := r.client.ival()
			client = append(client, float64(c.len()))
			uncovered = append(uncovered, float64(c.len()-covered(c, r.all())))
		}
		if req, resp, ok := r.hops(); ok {
			hopReq = append(hopReq, float64(req.len()))
			hopResp = append(hopResp, float64(resp.len()))
		}
		if r.gwHTTP != nil {
			var parts []ival
			for _, rt := range r.rts {
				parts = append(parts, rt.ival())
				rtt = append(rtt, float64(rt.end-rt.start))
			}
			gwSelf = append(gwSelf, float64(selfTime(r.gwHTTP.ival(), parts)))
		}
		if r.srvHTTP == nil {
			continue
		}
		h := r.srvHTTP.ival()
		handler = append(handler, float64(h.len()))
		sf, wt, scored := requestSelf(h, flushFor(flushes, flushesOf[scanKeys[id]], h))
		self = append(self, float64(sf))
		if scored {
			wait = append(wait, float64(wt))
		}
	}

	const us = 1e-3
	s.pct("server.handler_us_p50", handler, 0.50, us, "us")
	s.pct("server.handler_us_p99", handler, 0.99, us, "us")
	s.pct("server.self_us_p50", self, 0.50, us, "us")
	s.pct("net.request_us_p50", hopReq, 0.50, us, "us")
	s.pct("net.response_us_p50", hopResp, 0.50, us, "us")
	d := counters{
		hits: p.after.hits - p.before.hits, misses: p.after.misses - p.before.misses,
		batches: p.after.batches - p.before.batches, batchedRaws: p.after.batchedRaws - p.before.batchedRaws,
		scanRetries: p.after.scanRetries - p.before.scanRetries,
	}
	if lookups := d.hits + d.misses; lookups > 0 {
		s.add("server.cache_hit_ratio", float64(d.hits)/float64(lookups), "ratio", int(lookups))
	}
	mean := 0.0
	if d.batches > 0 {
		mean = float64(d.batchedRaws) / float64(d.batches)
	}
	s.add("server.batch_size_mean", mean, "count", int(d.batches))
	if len(flushes) > 0 {
		s.pct("server.batch_wait_us_p50", wait, 0.50, us, "us")
		var totals []float64
		for _, f := range flushes {
			totals = append(totals, float64(f.total))
		}
		for i, name := range engines {
			if n := engN[int8(i)]; n > 0 {
				s.add("engine."+name+".us_per_sample", float64(engDur[int8(i)])*us/float64(n), "us", int(n))
			}
		}
		s.pct("engine.flush_us_p50", totals, 0.50, us, "us")
		// An HTTP scan consumes every engine's score, an oracle query only
		// the target's.
		var consumed int64
		for _, m := range members {
			switch {
			case scanBodies[m.key]:
				consumed += int64(len(engines))
			case oracleKeys[m.key]:
				consumed++
			}
		}
		s.add("engine.useful_ratio", float64(consumed)/float64(computed), "ratio", int(computed))
	}
	if c := p.camp; c != nil {
		jobMetrics(s, c, attacks, gradSum, gradCount, oracleSum, oracleMs, rec)
	}
	if w.gateway {
		s.pct("gateway.self_us_p50", gwSelf, 0.50, us, "us")
		s.pct("gateway.replica_rtt_us_p50", rtt, 0.50, us, "us")
		s.add("gateway.retries", float64(d.scanRetries), "count", len(gwSelf))
	}

	// The share of all client time no span covers.
	unaccounted := 1.0
	if total := sum(client); total > 0 {
		unaccounted = sum(uncovered) / total
		s.add("trace.unaccounted_ratio", unaccounted, "ratio", len(client))
	}
	var traced, untraced metricSet
	scanMetrics(&traced, p.rounds)
	scanMetrics(&untraced, base.rounds)
	tp, tok := traced.get("scan_p50_ms")
	bp, bok := untraced.get("scan_p50_ms")
	if tok && bok && bp.Value > 0 {
		s.add("trace.overhead_ratio", tp.Value/bp.Value, "ratio", tp.N)
	}
	return unaccounted
}

// requestSelf splits a replica handler span h. When flush f scored the
// request, batch wait runs from the handler start to f's first ScoreBatch,
// and self time is what neither the wait nor f's scoring covers; a cache
// hit (nil f) is all self time.
func requestSelf(h ival, f *flush) (self, wait int64, scored bool) {
	if f == nil {
		return h.len(), 0, false
	}
	children := append([]ival{{h.a, f.first}}, f.parts...)
	return selfTime(h, children), f.first - h.a, true
}

// flushFor finds the flush that scored a request's body: the first flush
// carrying that content that started while the handler ran.
func flushFor(flushes map[int64]*flush, ids []int64, h ival) *flush {
	var best *flush
	for _, id := range ids {
		f := flushes[id]
		if f == nil || f.first < h.a || f.first > h.b {
			continue
		}
		if best == nil || f.first < best.first {
			best = f
		}
	}
	return best
}

// jobMetrics adds the attack-job layers: gradient, oracle wait, the
// attack's own work per round, and the job's queue and verify time.
func jobMetrics(s *metricSet, c *campaign, attacks map[uint64][]span, gradSum, gradCount, oracleSum int64, oracleMs []float64, rec *recorder) {
	jobs := append([]jobOut(nil), c.jobs...)
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].id < jobs[j].id }) // submission order
	for _, a := range attacks {
		sort.Slice(a, func(i, j int) bool { return a[i].start < a[j].start })
	}
	var rounds int
	var attackSum int64
	var queueMs, verifyMs []float64
	used := map[uint64]int{}
	for _, j := range jobs {
		rounds += *j.view.Rounds
		key := rec.jobKey(j.spec.target, j.spec.raw)
		i := used[key]
		if i >= len(attacks[key]) {
			continue
		}
		used[key] = i + 1
		a := attacks[key][i]
		attackSum += a.end - a.start
		// A job an idle worker starts before the client has read its 202
		// did not queue.
		queueMs = append(queueMs, float64(max(0, a.start-j.granted))/1e6)
		verifyMs = append(verifyMs, j.view.ElapsedMs-float64(a.end-a.start)/1e6)
	}
	if rounds == 0 {
		return
	}
	r := float64(rounds)
	s.add("core.gradient_ms_per_round", float64(gradSum)/1e6/r, "ms", rounds)
	s.add("core.gradient_calls_per_round", float64(gradCount)/r, "count", rounds)
	s.pct("core.oracle_wait_ms_p50", oracleMs, 0.50, 1, "ms")
	s.add("core.round_self_ms", float64(attackSum-oracleSum-gradSum)/1e6/r, "ms", rounds)
	s.pct("server.job_queue_ms_p50", queueMs, 0.50, 1, "ms")
	s.pct("server.job_verify_ms_p50", verifyMs, 0.50, 1, "ms")
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
