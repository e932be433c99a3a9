package parallel

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Pool is the long-lived counterpart of the batch helpers above: a fixed set
// of worker goroutines consuming a bounded submission queue. The batch
// helpers fan a known slice of work across goroutines and return; a Pool
// accepts work that arrives over time — the serving layer's attack jobs —
// and makes overload explicit: TrySubmitCtx never blocks, it reports a full
// queue so the caller can shed load (HTTP 429) instead of buffering
// unboundedly.
type Pool struct {
	mu     sync.RWMutex // guards closed vs. in-flight TrySubmitCtx sends
	closed bool

	tasks   chan func()
	workers sync.WaitGroup
	pending atomic.Int64 // queued + running tasks
	done    atomic.Int64 // tasks completed over the pool's lifetime

	// base is the context handed to ctx-aware tasks; Cancel cancels it, so
	// every queued and running task submitted via TrySubmitCtx observes the
	// pool-wide cancellation at once (the forced-shutdown lever).
	base       context.Context
	cancelBase context.CancelFunc
}

// Submission errors. TrySubmitCtx returns them so callers can answer "queue
// full" (shed, retry later) and "pool closed" (shutting down, go away)
// differently.
var (
	ErrQueueFull  = errors.New("parallel: pool queue full")
	ErrPoolClosed = errors.New("parallel: pool closed")
)

// NewPool starts a pool with the given worker count (resolved via Workers,
// so <= 0 selects GOMAXPROCS) and queue capacity (minimum 1).
func NewPool(workers, queue int) *Pool {
	if queue < 1 {
		queue = 1
	}
	//lint:ignore ctxflow pool-lifetime cancellation root; Cancel severs it for every task at once
	base, cancel := context.WithCancel(context.Background())
	p := &Pool{tasks: make(chan func(), queue), base: base, cancelBase: cancel}
	w := Workers(workers)
	p.workers.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer p.workers.Done()
			for task := range p.tasks {
				task()
				p.done.Add(1)
				p.pending.Add(-1)
			}
		}()
	}
	return p
}

// TrySubmitCtx enqueues a cancellation-aware task without blocking. The
// task receives the pool's base context: it is live for the pool's whole
// life and cancelled by Cancel, so long-running tasks (serving-layer attack
// jobs) can be reaped during a forced shutdown. Callers wanting a per-task
// deadline derive one from the received context. Returns ErrQueueFull when
// the queue is full and ErrPoolClosed after Drain.
func (p *Pool) TrySubmitCtx(task func(ctx context.Context)) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrPoolClosed
	}
	select {
	case p.tasks <- func() { task(p.base) }:
		p.pending.Add(1)
		return nil
	default:
		return ErrQueueFull
	}
}

// Cancel cancels the context every ctx-aware task received, queued and
// running alike. It does not close the pool or wait: pair it with Drain to
// force a bounded shutdown — Drain for the graceful half, Cancel when the
// deadline is near and the stragglers must be reaped.
func (p *Pool) Cancel() { p.cancelBase() }

// Pending returns the number of tasks submitted but not yet finished
// (queued plus running).
func (p *Pool) Pending() int { return int(p.pending.Load()) }

// Queued returns the number of tasks waiting in the queue (not yet picked
// up by a worker).
func (p *Pool) Queued() int { return len(p.tasks) }

// Done returns how many tasks have completed since the pool started.
func (p *Pool) Done() int { return int(p.done.Load()) }

// Drain closes the pool to new submissions and waits for every queued and
// running task to finish, or for ctx to expire — the graceful-shutdown
// primitive. On ctx expiry the workers keep running their current tasks in
// the background; only the wait is abandoned. Drain is idempotent.
func (p *Pool) Drain(ctx context.Context) error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
	p.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		p.workers.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		p.cancelBase() // every task finished; release the base context
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
