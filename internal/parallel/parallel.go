// Package parallel is the shared data-parallel compute layer behind the
// pipeline's hot paths: minibatch training and batch scoring (internal/nn,
// internal/detect), exact Shapley enumeration (internal/shapley), and the
// experiment harness (internal/eval).
//
// Every helper takes the same Workers knob: values <= 0 resolve to
// runtime.GOMAXPROCS(0), 1 runs inline on the calling goroutine (no pool,
// no synchronization), and larger values bound the number of worker
// goroutines. Work is handed out through an atomic cursor, so helpers
// balance load across uneven item costs without per-item channel traffic.
//
// Determinism contract: helpers never reorder results. ForEach gives every
// index its own isolated slot of whatever the caller indexes and ForEachErr
// reports the lowest-index error, so a caller that folds the slots in index
// order gets a floating-point reduction that is bit-identical for every
// worker count, including the inline path.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a Workers knob to a concrete goroutine count:
// n <= 0 selects runtime.GOMAXPROCS(0), anything else is returned as is.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(i) for every i in [0, n), using up to workers goroutines
// (resolved via Workers). fn must be safe for concurrent invocation with
// distinct indices; each index is executed exactly once. When the resolved
// worker count (or n) is 1 the loop runs inline on the caller's goroutine.
func ForEach(workers, n int, fn func(i int)) {
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ForEachErr runs fn(i) for every i in [0, n) like ForEach and returns the
// error with the lowest index, or nil when every call succeeds. All indices
// run even after a failure — callers that need cancellation should check
// shared state inside fn — so the returned error is deterministic across
// worker counts and schedules.
func ForEachErr(workers, n int, fn func(i int) error) error {
	// Tracks only the lowest failing index instead of an O(n) error slice:
	// the all-success path (by far the common one) never allocates and
	// never takes the lock.
	var mu sync.Mutex
	bestIdx := n
	var bestErr error
	ForEach(workers, n, func(i int) {
		if err := fn(i); err != nil {
			mu.Lock()
			if i < bestIdx {
				bestIdx, bestErr = i, err
			}
			mu.Unlock()
		}
	})
	return bestErr
}

// Do runs the given heterogeneous tasks concurrently, bounded by workers,
// and returns the first (lowest-index) error. It is the fan-out primitive
// for "train these independent models at the same time" call sites.
func Do(workers int, tasks ...func() error) error {
	return ForEachErr(workers, len(tasks), func(i int) error {
		return tasks[i]()
	})
}
