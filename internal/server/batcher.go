package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"mpass/internal/engine"
	"mpass/internal/parallel"
)

// Batcher is the micro-batching dispatcher: concurrent scan requests are
// coalesced into one ScoreBatch call per resident detector, so the
// lookup-table fast path's per-batch costs (table fetch, worker fan-out)
// amortize across requests instead of being paid once per HTTP call.
//
// A single dispatcher goroutine alternates between collecting a batch —
// the first request plus whatever is already queued behind it, up to
// MaxBatch, without waiting for more — and flushing it. While a flush is
// scoring, new arrivals queue in the submission channel, which is what
// builds the next coalesced batch under load; an idle dispatcher never
// holds a request back. The channel is bounded: when it is full, Score
// fails fast with ErrOverloaded and the HTTP layer sheds the request with
// a 429.
//
// An oracle query is a one-engine row: each engine's ScoreBatch gets only
// the rows that need it, so a query for one label pays for one engine, and
// an engine no row needs sits the flush out.
//
// Scores are bit-identical to calling Detector.Score per sample: the
// dispatcher only regroups inputs, and the ScoreBatch implementations carry
// the repo-wide batch-equals-single parity guarantee.
type Batcher struct {
	// src resolves the model set to score with; the dispatcher loads it once
	// per flush, so every request coalesced into one batch is scored and
	// labeled by a single model generation even if a hot reload lands while
	// the batch is being collected.
	src     func() *engine.Set
	max     int
	metrics *Metrics
	drained *DrainRate // flushed requests; the scan-shed Retry-After hint

	mu     sync.RWMutex // guards closed vs. in-flight submissions
	closed bool         // guarded by mu
	reqs   chan *scanReq
	done   chan struct{} // dispatcher exited
}

// scanOut is one request's result: per-detector scores and hard labels, in
// set order, plus the model generation that produced them — response
// rendering and cache filing key on the set that actually scored, never on
// whatever is current by the time the result is consumed.
type scanOut struct {
	Scores []float64
	Labels []bool
	set    *engine.Set
}

// A targeted request (an oracle query) names the one engine whose verdict it
// needs; its scanOut fills only that engine's column, so it must never be
// cached or rendered as a scan response.
type scanReq struct {
	raw    []byte
	target string       // engine to score; "" = every engine (a scan)
	enq    time.Time    // when Score or ScoreWait queued it; starts batch_wait
	out    chan scanOut // buffered; the dispatcher never blocks on delivery
}

// Batcher errors surfaced to the HTTP layer.
var (
	ErrOverloaded = errors.New("server: scan queue full")
	ErrClosed     = errors.New("server: shutting down")
)

// newBatcher starts the dispatcher over a model-set source. maxBatch and
// queue have sane minimums.
func newBatcher(src func() *engine.Set, maxBatch, queue int, m *Metrics) *Batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if queue < maxBatch {
		queue = maxBatch
	}
	b := &Batcher{
		src:     src,
		max:     maxBatch,
		metrics: m,
		drained: NewDrainRate(time.Now()),
		reqs:    make(chan *scanReq, queue),
		done:    make(chan struct{}),
	}
	go b.loop()
	return b
}

// Score submits raw for scoring and waits for the coalesced result. It
// fails fast with ErrOverloaded when the submission queue is full, ErrClosed
// after shutdown, or ctx's error when the caller's deadline expires first.
func (b *Batcher) Score(ctx context.Context, raw []byte) (scanOut, error) {
	req := &scanReq{raw: raw, enq: time.Now(), out: make(chan scanOut, 1)}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return scanOut{}, ErrClosed
	}
	select {
	case b.reqs <- req:
		b.mu.RUnlock()
	default:
		b.mu.RUnlock()
		return scanOut{}, ErrOverloaded
	}
	select {
	case out := <-req.out:
		return out, nil
	case <-ctx.Done():
		// The dispatcher will still deliver into the buffered channel; the
		// result is simply dropped.
		return scanOut{}, ctx.Err()
	}
}

// ScoreWait is Score with backpressure instead of shedding: when the queue
// is full it blocks until there is room (or ctx expires). Resident attack
// jobs use it for their oracle queries — a job that has already been
// admitted should slow down under load, not lose a query mid-attack. A
// non-empty target scores only the engine of that name, in the generation
// the flush snapshots; if that generation lacks it, no engine scores the
// request and the caller's lookup in out.set finds it missing.
func (b *Batcher) ScoreWait(ctx context.Context, raw []byte, target string) (scanOut, error) {
	req := &scanReq{raw: raw, target: target, enq: time.Now(), out: make(chan scanOut, 1)}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return scanOut{}, ErrClosed
	}
	// Holding the read lock while blocked on the send is safe: Close waits
	// for the write lock, and the dispatcher keeps consuming until Close
	// actually closes the channel, so the send always completes.
	select {
	case b.reqs <- req:
		b.mu.RUnlock()
	case <-ctx.Done():
		b.mu.RUnlock()
		return scanOut{}, ctx.Err()
	}
	select {
	case out := <-req.out:
		return out, nil
	case <-ctx.Done():
		return scanOut{}, ctx.Err()
	}
}

// Close stops accepting requests, lets the dispatcher flush everything
// already queued, and waits for it to exit.
func (b *Batcher) Close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.reqs)
	}
	b.mu.Unlock()
	<-b.done
}

// loop is the dispatcher goroutine. It takes the first request, then only
// what is already queued: requests that arrive during a flush become the
// next batch, so batches grow with load and a lone request never waits.
func (b *Batcher) loop() {
	defer close(b.done)
	batch := make([]*scanReq, 0, b.max)
	for first := range b.reqs {
		batch = append(batch[:0], first)
	drain:
		for len(batch) < b.max {
			select {
			case r, open := <-b.reqs:
				if !open {
					break drain
				}
				batch = append(batch, r)
			default:
				break drain
			}
		}
		b.flush(batch)
	}
}

// flush scores one coalesced batch and fans results back out.
func (b *Batcher) flush(batch []*scanReq) {
	if b.metrics != nil {
		b.metrics.observeBatch(batch, time.Now())
	}
	// One snapshot per flush: every request in this batch gets scores and
	// labels from the same model generation.
	set := b.src()
	drivers, names := set.Drivers(), set.Names()
	outs := make([]scanOut, len(batch))
	for i := range outs {
		outs[i] = scanOut{
			Scores: make([]float64, len(drivers)),
			Labels: make([]bool, len(drivers)),
			set:    set,
		}
	}
	// The engines score concurrently, each into its own column. A small
	// batch leaves each engine's per-sample fan-out little to spread, so
	// scoring them one after another would idle the other cores.
	parallel.ForEach(0, len(drivers), func(di int) {
		// Each engine scores the scans plus the queries that name it; a
		// target missing from this generation matches no engine.
		idx := make([]int, 0, len(batch))
		in := make([][]byte, 0, len(batch))
		for i, r := range batch {
			if r.target == "" || r.target == names[di] {
				idx = append(idx, i)
				in = append(in, r.raw)
			}
		}
		if len(in) == 0 {
			return
		}
		// The hard label is score >= threshold, the rule every driver's
		// Label follows and reload certification checks.
		d := drivers[di]
		scores := d.ScoreBatch(in)
		thr := d.Threshold()
		for k, i := range idx {
			outs[i].Scores[di] = scores[k]
			outs[i].Labels[di] = scores[k] >= thr
		}
	})
	b.drained.Add(time.Now(), int64(len(batch)))
	for i, r := range batch {
		// Each request's out channel is buffered (cap 1) and written exactly
		// once, so this delivery can never block the dispatcher — even when
		// the requester already gave up on its context.
		//lint:ignore boundedqueue buffered cap-1 result channel, single write
		r.out <- outs[i]
	}
}
