package server

import (
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"mpass/internal/core"
	"mpass/internal/parallel"
	"mpass/internal/sandbox"
)

// JobState is an attack job's lifecycle stage.
type JobState string

// Job lifecycle: queued -> running -> done | failed.
const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// job is the registry's mutable record; reads and writes go through the
// registry mutex.
type job struct {
	id     string
	target string
	tenant string // submitting tenant ("" on single-tenant servers)
	state  JobState

	// modelVersion is the generation the job was submitted against;
	// finishedVersion is the one its oracle was answering from when it
	// finished. They differ exactly when a hot reload landed mid-attack.
	modelVersion    string
	finishedVersion string

	created  time.Time
	started  time.Time
	finished time.Time

	// attack outcome
	success    bool
	queries    int
	rounds     int
	ae         []byte
	aprPercent float64
	functional *bool // sandbox verdict on successful AEs
	errMsg     string
}

// JobView is the JSON form of a job returned by GET /v1/jobs/{id}.
//
// Success, Queries, and Rounds are pointers so terminal states emit them
// explicitly: a finished-but-unsuccessful job reports "success": false and
// "queries": 0 rather than dropping the keys, which would make failure
// indistinguishable from missing data. For queued/running jobs they are
// omitted — the outcome does not exist yet.
type JobView struct {
	ID      string   `json:"id"`
	Target  string   `json:"target"`
	Tenant  string   `json:"tenant,omitempty"`
	State   JobState `json:"state"`
	Created string   `json:"created"`

	// ModelVersion is the generation the job was submitted against.
	// ModelVersionAtFinish appears only when a hot reload swapped the
	// resident set while the attack ran — the queries that produced the
	// result straddled generations, which a reproducibility audit needs to
	// know.
	ModelVersion         string `json:"model_version,omitempty"`
	ModelVersionAtFinish string `json:"model_version_at_finish,omitempty"`

	Success    *bool   `json:"success,omitempty"`
	Queries    *int    `json:"queries,omitempty"`
	Rounds     *int    `json:"rounds,omitempty"`
	AESize     int     `json:"ae_size,omitempty"`
	AESHA256   string  `json:"ae_sha256,omitempty"`
	AEBase64   string  `json:"ae_base64,omitempty"`
	APRPercent float64 `json:"apr_percent,omitempty"`
	Functional *bool   `json:"functionality_preserved,omitempty"`
	Error      string  `json:"error,omitempty"`
	ElapsedMs  float64 `json:"elapsed_ms,omitempty"`
}

// jobRegistry tracks attack jobs and runs them on a bounded parallel.Pool.
// The pool's queue is the admission bound for in-flight work, and the
// registry itself is bounded too: finished jobs are retained for ttl and
// evicted lazily (oldest first) whenever the map would exceed maxJobs, so a
// long-lived daemon under job churn holds a steady-state registry instead
// of leaking every result ever produced.
type jobRegistry struct {
	mu   sync.Mutex
	jobs map[string]*job // guarded by mu
	// finished holds job ids in finish order (the eviction queue); fhead is
	// the index of the oldest un-evicted entry.
	finished []string // guarded by mu
	fhead    int      // guarded by mu
	seq      int64    // guarded by mu
	pool     *parallel.Pool

	deadline time.Duration // per-job runtime cap (0 = none)
	ttl      time.Duration // finished-job retention (0 = keep until cap)
	maxJobs  int           // registry size cap (0 = unbounded)
	grace    time.Duration // post-cancel wait during a forced shutdown

	metrics *Metrics
	drained *DrainRate // finished jobs; the attack-shed Retry-After hint
}

func newJobRegistry(workers, queue int, deadline, ttl time.Duration, maxJobs int, grace time.Duration, m *Metrics) *jobRegistry {
	return &jobRegistry{
		jobs:     make(map[string]*job),
		pool:     parallel.NewPool(workers, queue),
		deadline: deadline,
		ttl:      ttl,
		maxJobs:  maxJobs,
		grace:    grace,
		metrics:  m,
		drained:  NewDrainRate(time.Now()),
	}
}

// evictLocked drops finished jobs that have outlived ttl, then keeps
// evicting oldest-finished-first while the registry (plus `need` incoming
// entries) would exceed maxJobs. Live jobs are never evicted. Callers hold
// r.mu.
func (r *jobRegistry) evictLocked(now time.Time, need int) {
	for r.fhead < len(r.finished) {
		id := r.finished[r.fhead]
		j, ok := r.jobs[id]
		if !ok {
			r.fhead++
			continue
		}
		expired := r.ttl > 0 && now.Sub(j.finished) >= r.ttl
		overCap := r.maxJobs > 0 && len(r.jobs)+need > r.maxJobs
		if !expired && !overCap {
			break
		}
		delete(r.jobs, id)
		r.fhead++
		r.metrics.JobsEvicted.Add(1)
	}
	// Compact the drained prefix so the eviction queue's backing array does
	// not itself become the leak.
	if r.fhead > 1024 && r.fhead*2 > len(r.finished) {
		r.finished = append(r.finished[:0], r.finished[r.fhead:]...)
		r.fhead = 0
	}
}

// size reports the current registry entry count (live + retained finished).
func (r *jobRegistry) size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.jobs)
}

// submit registers a job and queues run. The job's context is derived from
// the pool (cancelled on forced shutdown) and bounded by the configured
// per-job deadline. It returns ErrOverloaded when the pool queue or the
// registry is full of live work, and ErrClosed once the registry drains.
func (r *jobRegistry) submit(target, modelVersion, tenant string, run func(ctx context.Context, j *jobHandle)) (string, error) {
	now := time.Now()
	r.mu.Lock()
	r.evictLocked(now, 1)
	if r.maxJobs > 0 && len(r.jobs)+1 > r.maxJobs {
		// Every remaining entry is live (queued or running) — the registry
		// cap is doing its job as a second admission bound.
		r.mu.Unlock()
		return "", ErrOverloaded
	}
	r.seq++
	j := &job{
		id:           fmt.Sprintf("job-%06d", r.seq),
		target:       target,
		tenant:       tenant,
		state:        JobQueued,
		modelVersion: modelVersion,
		created:      now,
	}
	r.jobs[j.id] = j
	r.mu.Unlock()

	h := &jobHandle{reg: r, id: j.id}
	err := r.pool.TrySubmitCtx(func(ctx context.Context) {
		if r.deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, r.deadline)
			defer cancel()
		}
		h.setRunning()
		run(ctx, h)
	})
	if err != nil {
		r.mu.Lock()
		delete(r.jobs, j.id)
		r.mu.Unlock()
		if errors.Is(err, parallel.ErrPoolClosed) {
			return "", ErrClosed
		}
		return "", ErrOverloaded
	}
	return j.id, nil
}

// view snapshots a job for the HTTP layer. TTL eviction also runs here so
// retention is enforced on read-heavy, submit-quiet servers.
func (r *jobRegistry) view(id string, includeAE bool) (JobView, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evictLocked(time.Now(), 0)
	j, ok := r.jobs[id]
	if !ok {
		return JobView{}, false
	}
	v := JobView{
		ID:           j.id,
		Target:       j.target,
		Tenant:       j.tenant,
		State:        j.state,
		Created:      j.created.UTC().Format(time.RFC3339Nano),
		ModelVersion: j.modelVersion,
	}
	if j.finishedVersion != "" && j.finishedVersion != j.modelVersion {
		v.ModelVersionAtFinish = j.finishedVersion
	}
	if j.state == JobDone || j.state == JobFailed {
		success, queries, rounds := j.success, j.queries, j.rounds
		v.Success = &success
		v.Queries = &queries
		v.Rounds = &rounds
		v.Error = j.errMsg
		v.ElapsedMs = float64(j.finished.Sub(j.started)) / 1e6
		if j.success {
			v.AESize = len(j.ae)
			sum := sha256.Sum256(j.ae)
			v.AESHA256 = hex.EncodeToString(sum[:])
			v.APRPercent = j.aprPercent
			v.Functional = j.functional
			if includeAE {
				v.AEBase64 = base64.StdEncoding.EncodeToString(j.ae)
			}
		}
	}
	return v, true
}

// shutdown bounds the drain: first a graceful wait for queued and running
// jobs within ctx; if the deadline expires with stragglers, their contexts
// are cancelled and ctx-honoring jobs get grace to unwind (recording
// themselves as failed) before the original deadline error is surfaced.
// A nil return means every job reached a terminal state.
func (r *jobRegistry) shutdown(ctx context.Context) error {
	err := r.pool.Drain(ctx)
	if err == nil {
		return nil
	}
	r.pool.Cancel()
	// The grace window is deliberately decoupled from the caller's expired
	// context: it exists to reap tasks that honor cancellation promptly.
	//lint:ignore ctxflow bounded post-cancel grace after the caller's ctx already expired
	gctx, cancel := context.WithTimeout(context.Background(), r.grace)
	defer cancel()
	if r.pool.Drain(gctx) == nil {
		return nil
	}
	return err
}

// jobHandle lets the runner update its record without touching the map.
type jobHandle struct {
	reg *jobRegistry
	id  string
}

func (h *jobHandle) update(fn func(j *job)) {
	h.reg.mu.Lock()
	defer h.reg.mu.Unlock()
	if j, ok := h.reg.jobs[h.id]; ok {
		fn(j)
	}
}

func (h *jobHandle) setRunning() {
	h.update(func(j *job) {
		j.state = JobRunning
		j.started = time.Now()
	})
}

// finish records an attack result (or error) and flips the terminal state.
// A partial result attached to an error (cancelled or oracle-failed attack)
// still has its query/round spend recorded. modelVersion is the generation
// the job's oracle ended on (empty when unknown).
func (h *jobHandle) finish(original []byte, res *core.Result, err error, modelVersion string) {
	var functional *bool
	if err == nil && res.Success {
		if ok, serr := sandbox.BehaviourPreserved(original, res.AE); serr == nil {
			functional = &ok
		}
	}
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		h.reg.metrics.JobsCancelled.Add(1)
	}
	now := time.Now()
	h.reg.drained.Add(now, 1)
	h.update(func(j *job) {
		j.finished = now
		j.finishedVersion = modelVersion
		if res != nil {
			j.queries = res.Queries
			j.rounds = res.Rounds
		}
		if err != nil {
			j.state = JobFailed
			j.errMsg = err.Error()
			return
		}
		j.state = JobDone
		j.success = res.Success
		if res.Success {
			j.ae = res.AE
			j.aprPercent = 100 * float64(len(res.AE)-len(original)) / float64(len(original))
			j.functional = functional
		}
	})
	h.reg.mu.Lock()
	h.reg.finished = append(h.reg.finished, h.id)
	h.reg.mu.Unlock()
}
