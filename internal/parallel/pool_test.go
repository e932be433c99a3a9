package parallel

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// submit enqueues a context-free task, reporting whether the pool took it.
func submit(p *Pool, task func()) bool {
	return p.TrySubmitCtx(func(context.Context) { task() }) == nil
}

// drain waits, with no deadline, for every task the pool has taken.
func drain(t *testing.T, p *Pool) {
	t.Helper()
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func TestPoolRunsEverySubmittedTask(t *testing.T) {
	p := NewPool(4, 64)
	var ran atomic.Int64
	for i := 0; i < 50; i++ {
		if !submit(p, func() { ran.Add(1) }) {
			t.Fatalf("task %d rejected with room in the queue", i)
		}
	}
	drain(t, p)
	if ran.Load() != 50 {
		t.Fatalf("ran %d tasks, want 50", ran.Load())
	}
	if p.Done() != 50 || p.Pending() != 0 {
		t.Fatalf("Done=%d Pending=%d after Drain, want 50/0", p.Done(), p.Pending())
	}
}

func TestPoolShedsLoadWhenFull(t *testing.T) {
	block := make(chan struct{})
	p := NewPool(1, 2)
	var started sync.WaitGroup
	started.Add(1)
	submit(p, func() { started.Done(); <-block }) // occupies the worker
	started.Wait()
	if !submit(p, func() {}) || !submit(p, func() {}) {
		t.Fatal("queue rejected tasks below capacity")
	}
	if submit(p, func() {}) {
		t.Fatal("queue accepted a task beyond capacity")
	}
	if p.Queued() != 2 || p.Pending() != 3 {
		t.Fatalf("Queued=%d Pending=%d, want 2/3", p.Queued(), p.Pending())
	}
	close(block)
	drain(t, p)
}

func TestPoolDrainWaitsForRunningTasks(t *testing.T) {
	p := NewPool(2, 8)
	var finished atomic.Bool
	submit(p, func() {
		time.Sleep(50 * time.Millisecond)
		finished.Store(true)
	})
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !finished.Load() {
		t.Fatal("Drain returned before the running task finished")
	}
	if submit(p, func() {}) {
		t.Fatal("submit accepted work after Drain")
	}
	// Idempotent.
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
}

func TestPoolDrainHonorsDeadline(t *testing.T) {
	p := NewPool(1, 1)
	release := make(chan struct{})
	submit(p, func() { <-release })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain under stuck task: err=%v, want DeadlineExceeded", err)
	}
	close(release)
	drain(t, p)
}

// TestPoolSubmitCloseRace hammers TrySubmitCtx from many goroutines while
// the pool drains — under -race this is the guard against the classic
// send-on-closed-channel crash.
func TestPoolSubmitCloseRace(t *testing.T) {
	p := NewPool(2, 4)
	var accepted atomic.Int64
	var ran atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if submit(p, func() { ran.Add(1) }) {
					accepted.Add(1)
				}
			}
		}()
	}
	time.Sleep(time.Millisecond)
	drain(t, p)
	wg.Wait()
	// Stragglers that won the race before close have all run by now.
	p.workers.Wait()
	if ran.Load() != accepted.Load() {
		t.Fatalf("accepted %d tasks but ran %d", accepted.Load(), ran.Load())
	}
}

func TestPoolTrySubmitCtxErrors(t *testing.T) {
	block := make(chan struct{})
	p := NewPool(1, 1)
	var started sync.WaitGroup
	started.Add(1)
	if err := p.TrySubmitCtx(func(context.Context) { started.Done(); <-block }); err != nil {
		t.Fatalf("first TrySubmitCtx: %v", err)
	}
	started.Wait()
	if err := p.TrySubmitCtx(func(context.Context) {}); err != nil {
		t.Fatalf("queueable TrySubmitCtx: %v", err)
	}
	if err := p.TrySubmitCtx(func(context.Context) {}); err != ErrQueueFull {
		t.Fatalf("full queue returned %v, want ErrQueueFull", err)
	}
	close(block)
	drain(t, p)
	if err := p.TrySubmitCtx(func(context.Context) {}); err != ErrPoolClosed {
		t.Fatalf("closed pool returned %v, want ErrPoolClosed", err)
	}
}

// TestPoolCancelReapsRunningAndQueuedTasks pins the forced-shutdown lever:
// Cancel cancels the context of the running task and of tasks still queued,
// so a bounded Drain+Cancel sequence frees ctx-honoring workers promptly.
func TestPoolCancelReapsRunningAndQueuedTasks(t *testing.T) {
	p := NewPool(1, 2)
	running := make(chan struct{})
	observed := make(chan error, 2)
	p.TrySubmitCtx(func(ctx context.Context) {
		close(running)
		<-ctx.Done()
		observed <- ctx.Err()
	})
	p.TrySubmitCtx(func(ctx context.Context) {
		// Queued behind the first task: by the time it runs, the pool
		// context is already cancelled.
		observed <- ctx.Err()
	})
	<-running
	p.Cancel()
	for i := 0; i < 2; i++ {
		select {
		case err := <-observed:
			if err != context.Canceled {
				t.Fatalf("task %d observed %v, want context.Canceled", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("cancelled task never unblocked")
		}
	}
	drain(t, p)
}

// TestPoolDrainThenCancelBoundsStuckWork is the jobRegistry shutdown shape:
// graceful Drain times out on a ctx-honoring straggler, Cancel reaps it, and
// a second Drain completes.
func TestPoolDrainThenCancelBoundsStuckWork(t *testing.T) {
	p := NewPool(1, 1)
	p.TrySubmitCtx(func(ctx context.Context) { <-ctx.Done() })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain under hung task: %v, want DeadlineExceeded", err)
	}
	p.Cancel()
	gctx, gcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer gcancel()
	if err := p.Drain(gctx); err != nil {
		t.Fatalf("post-Cancel Drain: %v", err)
	}
}
