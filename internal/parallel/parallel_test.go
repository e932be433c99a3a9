package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 1000
		var hits [n]atomic.Int32
		ForEach(workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, got)
			}
		}
	}
}

func TestForEachZeroAndTinyN(t *testing.T) {
	ForEach(4, 0, func(int) { t.Fatal("fn called for n=0") })
	ran := false
	ForEach(8, 1, func(i int) { ran = true })
	if !ran {
		t.Fatal("fn not called for n=1")
	}
}

func TestForEachErrReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEachErr(workers, 100, func(i int) error {
			if i == 90 || i == 17 || i == 55 {
				return fmt.Errorf("fail at %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail at 17" {
			t.Errorf("workers=%d: err = %v, want fail at 17", workers, err)
		}
		if err := ForEachErr(workers, 10, func(int) error { return nil }); err != nil {
			t.Errorf("workers=%d: unexpected error %v", workers, err)
		}
	}
}

func TestDoRunsAllTasks(t *testing.T) {
	var a, b, c atomic.Bool
	sentinel := errors.New("boom")
	err := Do(3,
		func() error { a.Store(true); return nil },
		func() error { b.Store(true); return sentinel },
		func() error { c.Store(true); return nil },
	)
	if !errors.Is(err, sentinel) {
		t.Errorf("Do error = %v, want sentinel", err)
	}
	if !a.Load() || !b.Load() || !c.Load() {
		t.Error("Do skipped a task after a failure")
	}
}
