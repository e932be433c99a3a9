// Request proxying: the routing decision for a scan is its content
// SHA-256, so every upload is read and hashed *before* a replica is
// chosen. Small bodies stay in memory; large or unknown-length ones spool
// to a temp file while the hash accumulates incrementally, keeping gateway
// memory O(MaxBufferBytes) per request at any upload size. Both forms
// replay cheaply, which is what makes the retry-once-after-replica-loss
// guarantee safe: the second attempt re-sends identical bytes to the
// surviving owner of the key.
package gateway

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"time"
)

// payload is one upload, fully received and hashed, replayable per attempt.
type payload struct {
	sum  [32]byte
	size int64
	mem  []byte   // whole body, when it fit in MaxBufferBytes
	file *os.File // else the spool file holding the whole body
}

// reader returns a fresh reader over the whole body for one forward
// attempt. Spooled payloads read through a SectionReader, so attempts
// never disturb each other's offsets.
func (p *payload) reader() io.Reader {
	if p.file != nil {
		return io.NewSectionReader(p.file, 0, p.size)
	}
	return bytes.NewReader(p.mem)
}

// cleanup releases the spool file, if any. Idempotent: error paths inside
// readPayload clean up eagerly, and the handlers' deferred cleanup must
// then find nothing left to do rather than double-close the file.
func (p *payload) cleanup() {
	if p.file != nil {
		name := p.file.Name()
		p.file.Close()
		os.Remove(name)
		p.file = nil
	}
}

// errBodyTooLarge maps to 413.
var errBodyTooLarge = errors.New("gateway: body exceeds the configured cap")

// readPayload receives and hashes the upload. The incremental hash is fed
// first by the in-memory prefix, then — if the body outgrows
// MaxBufferBytes — by the copy loop spilling into the spool file, so no
// path ever holds more than MaxBufferBytes plus a copy buffer in memory.
func (g *Gateway) readPayload(r *http.Request) (*payload, error) {
	h := sha256.New()
	// +1 beyond the cap distinguishes "exactly at the cap" from "over it".
	lr := io.LimitReader(r.Body, g.cfg.MaxBodyBytes+1)
	mem, err := io.ReadAll(io.LimitReader(lr, g.cfg.MaxBufferBytes+1))
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	h.Write(mem)
	if int64(len(mem)) <= g.cfg.MaxBufferBytes {
		if int64(len(mem)) > g.cfg.MaxBodyBytes {
			return nil, errBodyTooLarge
		}
		p := &payload{size: int64(len(mem)), mem: mem}
		h.Sum(p.sum[:0])
		return p, nil
	}
	// Body outgrew the buffer: spool it. The file receives the prefix plus
	// the remainder, so it holds the complete body for replay.
	f, err := os.CreateTemp(g.cfg.SpoolDir, "mpass-gateway-*.spool")
	if err != nil {
		return nil, fmt.Errorf("spooling body: %w", err)
	}
	p := &payload{file: f}
	if _, err := f.Write(mem); err != nil {
		p.cleanup()
		return nil, fmt.Errorf("spooling body: %w", err)
	}
	rest, err := io.Copy(io.MultiWriter(f, h), lr)
	if err != nil {
		p.cleanup()
		return nil, fmt.Errorf("spooling body: %w", err)
	}
	p.size = int64(len(mem)) + rest
	if p.size > g.cfg.MaxBodyBytes {
		p.cleanup()
		return nil, errBodyTooLarge
	}
	h.Sum(p.sum[:0])
	g.metrics.ScansSpooled.Add(1)
	g.metrics.SpooledBytes.Add(p.size)
	return p, nil
}

// authHeader carries the client's tenant credential so every replica
// attempt — including the retry onto a rebuilt ring — presents the same
// identity. The gateway never authenticates itself; replicas own the
// allowlist, the gateway just relays the key and the 401/429 verdicts.
type authHeader struct {
	bearer string // Authorization header, verbatim
	apiKey string // X-API-Key header
}

func authFrom(r *http.Request) authHeader {
	return authHeader{
		bearer: r.Header.Get("Authorization"),
		apiKey: r.Header.Get("X-API-Key"),
	}
}

func (a authHeader) apply(h http.Header) {
	if a.bearer != "" {
		h.Set("Authorization", a.bearer)
	}
	if a.apiKey != "" {
		h.Set("X-API-Key", a.apiKey)
	}
}

// forward sends one attempt of the payload to a replica endpoint.
func (g *Gateway) forward(ctx context.Context, rep *replica, path, query string, p *payload, auth authHeader) (*http.Response, error) {
	url := rep.base + path
	if query != "" {
		url += "?" + query
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, p.reader())
	if err != nil {
		return nil, err
	}
	req.ContentLength = p.size
	req.Header.Set("Content-Type", "application/octet-stream")
	auth.apply(req.Header)
	return g.client.Do(req)
}

// relay copies a replica response through to the client verbatim (status,
// content type, body).
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// clusterBacklogs sums the probed queue depths across healthy replicas.
func (g *Gateway) clusterBacklogs() (scanQueue, jobsPending int) {
	for _, rep := range g.replicas {
		if !rep.healthy.Load() {
			continue
		}
		st, _ := rep.status()
		scanQueue += st.ScanQueue
		jobsPending += st.JobsPending
	}
	return scanQueue, jobsPending
}

// retryAfterScan derives the cluster scan-shed hint: the replica estimator
// over fleet-wide inputs, the summed backlog of the healthy replicas and
// the recent cluster routing rate.
func (g *Gateway) retryAfterScan() string {
	backlog, _ := g.clusterBacklogs()
	return strconv.Itoa(g.scanDrain.RetryAfterSecs(backlog, time.Now()))
}

// retryAfterAttack derives the cluster attack-shed hint.
func (g *Gateway) retryAfterAttack() string {
	_, backlog := g.clusterBacklogs()
	return strconv.Itoa(g.attackDrain.RetryAfterSecs(backlog, time.Now()))
}

// retriable reports whether a forward error warrants the one retry on a
// surviving replica: transport-level failures yes, the caller's own
// deadline or disconnect no.
func retriable(ctx context.Context, err error) bool {
	return err != nil && ctx.Err() == nil
}

func (g *Gateway) handleScan(w http.ResponseWriter, r *http.Request) {
	if g.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "gateway draining")
		return
	}
	p, err := g.readPayload(r)
	if err != nil {
		if errors.Is(err, errBodyTooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes", g.cfg.MaxBodyBytes))
		} else {
			writeError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	defer p.cleanup()
	if p.size == 0 {
		writeError(w, http.StatusBadRequest, "empty body; POST the PE bytes")
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()

	// Shard-affine placement: the ring snapshot taken here also answers the
	// retry target, so one request observes one consistent view even while
	// a probe rebuilds the published ring concurrently.
	rg := g.ring.Load()
	key := keyOf(p.sum)
	primary := rg.owner(key)
	if primary < 0 {
		writeError(w, http.StatusServiceUnavailable, "no healthy replicas")
		return
	}
	auth := authFrom(r)
	g.metrics.ScansRouted.Add(1)
	g.scanDrain.Add(time.Now(), 1)
	resp, err := g.forward(ctx, g.replicas[primary], "/v1/scan", r.URL.RawQuery, p, auth)
	if retriable(ctx, err) {
		// The owner vanished mid-request: mark it down (the prober will
		// bring it back), re-shard, and retry exactly once on the replica
		// that now owns the key. A second failure surfaces as 502 — never a
		// silent drop.
		g.markDown(primary)
		g.metrics.ScanRetries.Add(1)
		alt := rg.ownerExcluding(key, primary)
		if alt < 0 {
			g.metrics.ScansFailed.Add(1)
			writeError(w, http.StatusBadGateway, "no surviving replica for retry: "+err.Error())
			return
		}
		resp, err = g.forward(ctx, g.replicas[alt], "/v1/scan", r.URL.RawQuery, p, auth)
	}
	if err != nil {
		g.metrics.ScansFailed.Add(1)
		if ctx.Err() != nil {
			writeError(w, http.StatusGatewayTimeout, "scan timed out: "+err.Error())
			return
		}
		writeError(w, http.StatusBadGateway, "replica unreachable after retry: "+err.Error())
		return
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		// Replica-level shed becomes a cluster-level hint: the wait is
		// derived from the fleet's summed backlog, not one member's. A
		// longer replica hint survives — a tenant-quota 429 carries the
		// tenant's own bucket-refill wait, which no amount of fleet
		// capacity shortens.
		g.metrics.ScansShed.Add(1)
		resp.Header.Set("Retry-After", maxRetryAfter(resp.Header.Get("Retry-After"), g.retryAfterScan()))
	}
	relay(w, resp)
}

// maxRetryAfter keeps the stricter of the replica's own 429 hint and the
// cluster drain hint, floored at the minimum legal "1" when neither parses.
func maxRetryAfter(replica, cluster string) string {
	r, rerr := strconv.Atoi(replica)
	c, cerr := strconv.Atoi(cluster)
	switch {
	case rerr != nil && cerr != nil:
		return "1"
	case rerr != nil:
		return cluster
	case cerr != nil || r >= c:
		return replica
	}
	return cluster
}

// pickLeastLoaded returns the healthy replica with the lowest load
// (probed jobs_pending plus this gateway's in-flight submits), excluding
// one index (-1 excludes none). Ties break by index, so placement is
// deterministic given equal gauges.
func (g *Gateway) pickLeastLoaded(exclude int) int {
	best, bestLoad := -1, int64(math.MaxInt64)
	for i, rep := range g.replicas {
		if i == exclude || !rep.healthy.Load() {
			continue
		}
		if l := rep.load(); l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}

// attackAccepted mirrors the replica's POST /v1/attack response document.
type attackAccepted struct {
	ID     string `json:"id"`
	Target string `json:"target"`
	Poll   string `json:"poll"`
}

func (g *Gateway) handleAttack(w http.ResponseWriter, r *http.Request) {
	if g.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "gateway draining")
		return
	}
	p, err := g.readPayload(r)
	if err != nil {
		if errors.Is(err, errBodyTooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes", g.cfg.MaxBodyBytes))
		} else {
			writeError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	defer p.cleanup()

	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()

	idx := g.pickLeastLoaded(-1)
	if idx < 0 {
		writeError(w, http.StatusServiceUnavailable, "no healthy replicas")
		return
	}
	auth := authFrom(r)
	resp, err := g.submitAttack(ctx, idx, r.URL.RawQuery, p, auth)
	if retriable(ctx, err) {
		g.markDown(idx)
		g.metrics.AttackRetries.Add(1)
		if alt := g.pickLeastLoaded(idx); alt >= 0 {
			resp, err = g.submitAttack(ctx, alt, r.URL.RawQuery, p, auth)
			idx = alt
		}
	}
	if err != nil {
		g.metrics.AttacksFailed.Add(1)
		writeError(w, http.StatusBadGateway, "replica unreachable after retry: "+err.Error())
		return
	}
	defer resp.Body.Close()
	body, rerr := io.ReadAll(resp.Body)
	if rerr != nil {
		g.metrics.AttacksFailed.Add(1)
		writeError(w, http.StatusBadGateway, "reading replica response: "+rerr.Error())
		return
	}
	if resp.StatusCode != http.StatusAccepted {
		if resp.StatusCode == http.StatusTooManyRequests {
			g.metrics.AttacksShed.Add(1)
			w.Header().Set("Retry-After", maxRetryAfter(resp.Header.Get("Retry-After"), g.retryAfterAttack()))
		}
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
		return
	}
	// Lift the replica-local job ID into the cluster namespace:
	// {replica}/{id}. GET /v1/jobs/{replica}/{id} then routes back to the
	// owning replica deterministically, with no gateway-side job table to
	// keep consistent.
	var acc attackAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		g.metrics.AttacksFailed.Add(1)
		writeError(w, http.StatusBadGateway, "decoding replica response: "+err.Error())
		return
	}
	rep := g.replicas[idx]
	g.metrics.AttacksRouted.Add(1)
	g.attackDrain.Add(time.Now(), 1)
	acc.ID = rep.name + "/" + acc.ID
	acc.Poll = "/v1/jobs/" + acc.ID
	writeJSON(w, http.StatusAccepted, acc)
}

// submitAttack posts one attack submission attempt, tracking the in-flight
// count the least-loaded picker reads.
func (g *Gateway) submitAttack(ctx context.Context, idx int, query string, p *payload, auth authHeader) (*http.Response, error) {
	rep := g.replicas[idx]
	rep.inflightAttacks.Add(1)
	defer rep.inflightAttacks.Add(-1)
	return g.forward(ctx, rep, "/v1/attack", query, p, auth)
}

func (g *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	repName := r.PathValue("replica")
	id := r.PathValue("id")
	idx, ok := g.byName[repName]
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Sprintf("unknown replica %q in job id", repName))
		return
	}
	g.metrics.JobPolls.Add(1)
	rep := g.replicas[idx]
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()
	url := rep.base + "/v1/jobs/" + id
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		g.metrics.JobErrors.Add(1)
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	authFrom(r).apply(req.Header)
	resp, err := g.client.Do(req)
	if err != nil {
		// Job results live on exactly one replica; if it is gone, the
		// result is gone with it. Say so instead of pretending otherwise.
		g.metrics.JobErrors.Add(1)
		if rep.healthy.Load() {
			g.markDown(idx)
		}
		writeError(w, http.StatusBadGateway,
			fmt.Sprintf("replica %s unreachable; job results are replica-local and may be lost: %v", repName, err))
		return
	}
	relay(w, resp)
}
