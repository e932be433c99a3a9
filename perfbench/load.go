package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mpass/internal/corpus"
	"mpass/internal/engine"
	"mpass/internal/server"
)

// body is one scan upload with what its 200 must echo.
type body struct {
	raw []byte
	sha string    // hex SHA-256 the response must echo
	ref []float64 // the engines' own Score, in set order; nil until audited
}

func newBody(raw []byte) *body {
	sum := sha256.Sum256(raw)
	return &body{raw: raw, sha: hex.EncodeToString(sum[:])}
}

// inputs are everything a workload sends, generated from the workload seed.
type inputs struct {
	hot   []*body // the scan-hot / gateway-hot pool
	warm  *body   // the cold workloads' warm-up scan
	cold  *coldSource
	jobs  []jobSpec // the attack-mix campaign, in submission order
	order *rand.Rand
}

const hotPool = 32

// Workload input streams are derived from the seed with distinct offsets
// so the hot pool, cold bodies and campaign samples never coincide.
func newInputs(seed int64, jobsPerTarget int, targets []string) *inputs {
	in := &inputs{order: rand.New(rand.NewSource(seed))}
	g := corpus.NewGenerator(seed*4 + 1)
	seen := map[string]bool{}
	for len(in.hot) < hotPool {
		b := newBody(g.Sample(corpus.Family(len(in.hot) % 2)).Raw)
		if !seen[b.sha] {
			seen[b.sha] = true
			in.hot = append(in.hot, b)
		}
	}
	in.cold = &coldSource{g: corpus.NewGenerator(seed*4 + 2), seen: seen}
	in.warm = in.cold.next()

	cg := corpus.NewGenerator(seed*4 + 3)
	samples := make([][]byte, 16)
	for i := range samples {
		samples[i] = cg.Sample(corpus.Malware).Raw
	}
	for j := 0; j < jobsPerTarget*len(targets); j++ {
		k := in.order.Intn(len(samples))
		in.jobs = append(in.jobs, jobSpec{target: targets[j%len(targets)], raw: samples[k]})
	}
	return in
}

// coldSource hands out distinct generated samples, so every scan misses
// the cache. Generation runs before each request's clock starts.
type coldSource struct {
	mu   sync.Mutex
	g    *corpus.Generator
	seen map[string]bool
	n    int
}

func (c *coldSource) next() *body {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		c.n++
		b := newBody(c.g.Sample(corpus.Family(c.n % 2)).Raw)
		if !c.seen[b.sha] {
			c.seen[b.sha] = true
			return b
		}
	}
}

// scoreRef fills b.ref with every engine's own Score.
func scoreRef(set *engine.Set, b *body) {
	b.ref = make([]float64, set.Len())
	for i, d := range set.Drivers() {
		b.ref[i] = d.Score(b.raw)
	}
}

// scanDoc is the part of a scan response the benchmark checks.
type scanDoc struct {
	SHA256  string `json:"sha256"`
	Results []struct {
		Model string  `json:"model"`
		Score float64 `json:"score"`
	} `json:"results"`
}

// matches reports whether the response echoes b's digest and, when b has
// reference scores, whether every score is bit-identical to them.
func (d *scanDoc) matches(b *body, names []string) bool {
	if d.SHA256 != b.sha {
		return false
	}
	if b.ref == nil {
		return true
	}
	if len(d.Results) != len(b.ref) {
		return false
	}
	for i, r := range d.Results {
		if r.Model != names[i] || math.Float64bits(r.Score) != math.Float64bits(b.ref[i]) {
			return false
		}
	}
	return true
}

// scanResult is one client's share of a phase.
type scanResult struct {
	lat     []float64 // ms, one per 200
	t       tally
	audited int
	wrong   int
	later   []pendingAudit // cold bodies whose scores are checked after the phase
}

type pendingAudit struct {
	b   *body
	doc scanDoc
}

func (r *scanResult) merge(u scanResult) {
	r.lat = append(r.lat, u.lat...)
	r.t.merge(u.t)
	r.audited += u.audited
	r.wrong += u.wrong
	r.later = append(r.later, u.later...)
}

// coldAuditEvery picks which cold 200s get their scores recomputed after
// the phase; every 200 has its digest checked.
const coldAuditEvery = 16

// scanner sends scans from one closed-loop client.
type scanner struct {
	cl    *http.Client
	base  string
	names []string
	rec   *recorder     // nil when untraced
	ids   *atomic.Int64 // request ids, shared by a phase's clients
	keys  *sync.Map     // traced: request id -> body content hash
}

// scan sends one body and classifies the outcome.
func (s *scanner) scan(ctx context.Context, b *body, res *scanResult) {
	url := s.base + "/v1/scan"
	id := s.ids.Add(1)
	var wrote, first atomic.Int64
	if s.rec != nil {
		url += "?" + benchID + "=" + strconv.FormatInt(id, 10)
		s.keys.Store(id, s.rec.hash(b.raw))
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote.Store(s.rec.now()) },
			GotFirstResponseByte: func() { first.Store(s.rec.now()) },
		})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b.raw))
	if err != nil {
		res.t.add(opFailed)
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	var r0 int64
	if s.rec != nil {
		r0 = s.rec.now()
	}
	t0 := time.Now()
	status, data, err := do(s.cl, req)
	lat := time.Since(t0)
	if s.rec != nil {
		r1 := s.rec.now()
		s.rec.add(span{kind: spanClient, id: id, start: r0, end: r1})
		if w := wrote.Load(); w != 0 {
			s.rec.add(span{kind: spanClientSend, id: id, start: r0, end: w})
		}
		if f := first.Load(); f != 0 {
			s.rec.add(span{kind: spanClientRecv, id: id, start: f, end: r1})
		}
	}
	var doc scanDoc
	var decodeErr error
	if err == nil && status == http.StatusOK {
		decodeErr = json.Unmarshal(data, &doc)
	}
	o := classify(status, err, decodeErr)
	res.t.add(o)
	if o != opOK {
		return
	}
	res.lat = append(res.lat, float64(lat)/1e6)
	if b.ref == nil && res.t.OK%coldAuditEvery == 0 {
		res.later = append(res.later, pendingAudit{b: b, doc: doc})
		return
	}
	res.audited++
	if !doc.matches(b, s.names) {
		res.wrong++
	}
}

// do sends req and reads the whole response body.
func do(cl *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// scanLoop is one closed-loop client: it sends the next body as soon as the
// previous response is read, until stop is closed or the deadline passes.
func (s *scanner) scanLoop(ctx context.Context, next func() *body, until time.Time, stop <-chan struct{}) scanResult {
	var res scanResult
	for time.Now().Before(until) {
		select {
		case <-stop:
			return res
		default:
		}
		s.scan(ctx, next(), &res)
	}
	return res
}

// finishAudits recomputes the reference scores of the deferred cold audits.
func finishAudits(ref *engine.Set, res *scanResult) {
	for _, p := range res.later {
		scoreRef(ref, p.b)
		res.audited++
		if !p.doc.matches(p.b, ref.Names()) {
			res.wrong++
		}
	}
	res.later = nil
}

// --- attack campaign ---

type jobSpec struct {
	target string
	raw    []byte
}

// jobOut is one campaign job as the client saw it.
type jobOut struct {
	spec    jobSpec
	id      string
	granted int64 // traced: recorder time the 202 arrived
	view    server.JobView
	ae      []byte
}

// campaign is the attack-mix job stream: submit in a fixed order, keep a
// job outstanding, poll it to a terminal state.
type campaign struct {
	t      tally
	jobs   []jobOut
	wall   time.Duration
	errors []string
}

const (
	// maxOutstanding is one job at a time. With four, the two attack
	// workers and the scans saturated both cores, and a slow spell of the
	// host could double the background scans' p99: over five seeds run
	// alternately it ranged 20–26 ms with four outstanding and 10.8–12.2 ms
	// with one.
	maxOutstanding = 1
	pollEvery      = 20 * time.Millisecond
)

func runCampaign(ctx context.Context, cl *http.Client, base string, specs []jobSpec, rec *recorder) campaign {
	var c campaign
	start := time.Now()
	var outstanding []*jobOut
	next := 0
	for next < len(specs) || len(outstanding) > 0 {
		for next < len(specs) && len(outstanding) < maxOutstanding {
			j, o := submit(ctx, cl, base, specs[next], rec)
			next++
			if o != opOK {
				c.t.add(o)
				continue
			}
			outstanding = append(outstanding, j)
		}
		time.Sleep(pollEvery)
		kept := outstanding[:0]
		for _, j := range outstanding {
			done, err := poll(ctx, cl, base, j)
			switch {
			case err != nil:
				c.t.add(opFailed)
				c.errors = append(c.errors, err.Error())
			case !done:
				kept = append(kept, j)
			case j.view.State == server.JobDone:
				c.t.add(opOK)
				c.jobs = append(c.jobs, *j)
			default:
				c.t.add(opFailed)
				c.errors = append(c.errors, fmt.Sprintf("job %s failed: %s", j.id, j.view.Error))
			}
		}
		outstanding = kept
	}
	c.wall = time.Since(start)
	return c
}

func submit(ctx context.Context, cl *http.Client, base string, spec jobSpec, rec *recorder) (*jobOut, outcome) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/attack?target="+spec.target, bytes.NewReader(spec.raw))
	if err != nil {
		return nil, opFailed
	}
	status, data, err := do(cl, req)
	j := &jobOut{spec: spec}
	if rec != nil {
		j.granted = rec.now()
	}
	var acc struct {
		ID string `json:"id"`
	}
	var decodeErr error
	if err == nil && status == http.StatusAccepted {
		status = http.StatusOK
		if decodeErr = json.Unmarshal(data, &acc); decodeErr == nil && acc.ID == "" {
			decodeErr = errors.New("no job id")
		}
	}
	j.id = acc.ID
	return j, classify(status, err, decodeErr)
}

// poll fetches the job view, with the AE once the job is terminal.
func poll(ctx context.Context, cl *http.Client, base string, j *jobOut) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+j.id+"?ae=1", nil)
	if err != nil {
		return false, err
	}
	status, data, err := do(cl, req)
	if err != nil {
		return false, err
	}
	if status != http.StatusOK {
		return false, fmt.Errorf("poll %s: status %d", j.id, status)
	}
	if err := json.Unmarshal(data, &j.view); err != nil {
		return false, fmt.Errorf("poll %s: %w", j.id, err)
	}
	switch j.view.State {
	case server.JobDone, server.JobFailed:
	default:
		return false, nil
	}
	if j.view.AEBase64 != "" {
		if j.ae, err = base64.StdEncoding.DecodeString(j.view.AEBase64); err != nil {
			return false, fmt.Errorf("poll %s: AE: %w", j.id, err)
		}
		j.view.AEBase64 = ""
	}
	return true, nil
}
