package server

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"mpass/internal/detect"
	"mpass/internal/nn"
)

// stubDetector scores deterministically from a hash of the input, so tests
// can verify per-request result routing without training anything.
type stubDetector struct {
	name string
	thr  float64
}

func (d *stubDetector) Name() string { return d.name }

func (d *stubDetector) Score(raw []byte) float64 {
	h := fnv.New64a()
	h.Write([]byte(d.name)) // distinct detectors disagree on the same bytes
	h.Write(raw)
	return float64(h.Sum64()%1000) / 1000
}

func (d *stubDetector) Label(raw []byte) bool { return d.Score(raw) >= d.thr }

func (d *stubDetector) DecisionThreshold() float64 { return d.thr }

// gatedDetector wraps a detector so every batch flush parks until the test
// releases it — the lever that makes coalescing deterministic.
type gatedDetector struct {
	detect.Detector
	entered chan int      // receives each flush's batch size
	release chan struct{} // one receive per flush
}

func (g *gatedDetector) ScoreBatch(raws [][]byte) []float64 {
	g.entered <- len(raws)
	<-g.release
	return detect.ScoreAll(g.Detector, raws, 1)
}

// convDetector builds a small untrained (random-weight) ConvDetector:
// deterministic scores through the real lookup-table batch path.
func convDetector(t *testing.T, name string, seed int64) *detect.ConvDetector {
	t.Helper()
	net, err := nn.NewConvNet(nn.ConvConfig{
		SeqLen: 512, EmbedDim: 3, Kernel: 8, Stride: 4, Filters: 6, Seed: seed,
	})
	if err != nil {
		t.Fatalf("NewConvNet: %v", err)
	}
	return &detect.ConvDetector{ModelName: name, Net: net, Threshold: 0.5}
}

func randomRaws(seed int64, n, maxLen int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	raws := make([][]byte, n)
	for i := range raws {
		raws[i] = make([]byte, 32+rng.Intn(maxLen))
		rng.Read(raws[i])
	}
	return raws
}

// TestBatcherParityWithDirectScore is the acceptance gate: scores served
// through the micro-batching path are bit-identical to direct
// Detector.Score calls on the same bytes.
func TestBatcherParityWithDirectScore(t *testing.T) {
	dets := []detect.Detector{
		convDetector(t, "MalConvA", 1),
		convDetector(t, "MalConvB", 2),
	}
	var m Metrics
	b := newBatcher(dets, 8, 64, &m)
	defer b.Close()

	raws := randomRaws(3, 48, 400)
	outs := make([]scanOut, len(raws))
	var wg sync.WaitGroup
	for i := range raws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := b.Score(context.Background(), raws[i])
			if err != nil {
				t.Errorf("Score(%d): %v", i, err)
				return
			}
			outs[i] = out
		}(i)
	}
	wg.Wait()
	for i, raw := range raws {
		for di, d := range dets {
			want := d.Score(raw)
			if got := outs[i].Scores[di]; got != want {
				t.Fatalf("sample %d model %s: batched score %v != direct %v", i, d.Name(), got, want)
			}
			if got, want := outs[i].Labels[di], d.Label(raw); got != want {
				t.Fatalf("sample %d model %s: batched label %v != direct %v", i, d.Name(), got, want)
			}
		}
	}
}

// TestBatcherCoalescesConcurrentScans pins the dispatcher's core behavior:
// requests arriving while a flush is in progress form the next batch, no
// response is lost or duplicated, and at least one coalesced batch with
// size > 1 is observed. Run under -race via `make race`.
func TestBatcherCoalescesConcurrentScans(t *testing.T) {
	inner := &stubDetector{name: "stub", thr: 0.5}
	gate := &gatedDetector{
		Detector: inner,
		entered:  make(chan int, 16),
		release:  make(chan struct{}),
	}
	var m Metrics
	b := newBatcher([]detect.Detector{gate}, 32, 64, &m)
	defer b.Close()

	const extra = 15
	results := make(chan struct {
		i     int
		score float64
		err   error
	}, extra+1)
	submit := func(i int, raw []byte) {
		out, err := b.Score(context.Background(), raw)
		var score float64
		if err == nil {
			score = out.Scores[0]
		}
		results <- struct {
			i     int
			score float64
			err   error
		}{i, score, err}
	}
	raws := randomRaws(7, extra+1, 200)

	go submit(0, raws[0])
	if n := <-gate.entered; n != 1 {
		t.Fatalf("first flush batched %d requests, want 1", n)
	}
	// While flush #1 is parked, the rest queue up behind it.
	for i := 1; i <= extra; i++ {
		go submit(i, raws[i])
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.queued() < extra {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests queued", b.queued(), extra)
		}
		time.Sleep(time.Millisecond)
	}
	gate.release <- struct{}{} // flush #1 completes
	if n := <-gate.entered; n != extra {
		t.Fatalf("second flush batched %d requests, want %d", n, extra)
	}
	gate.release <- struct{}{} // flush #2 completes

	seen := make(map[int]bool)
	for k := 0; k < extra+1; k++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("request %d failed: %v", r.i, r.err)
		}
		if seen[r.i] {
			t.Fatalf("request %d answered twice", r.i)
		}
		seen[r.i] = true
		if want := inner.Score(raws[r.i]); r.score != want {
			t.Fatalf("request %d got score %v, want %v (response misrouted)", r.i, r.score, want)
		}
	}
	if got := m.Batches.Load(); got != 2 {
		t.Fatalf("Batches = %d, want 2", got)
	}
	if got := m.Coalesced.Load(); got < 1 {
		t.Fatal("no coalesced batch (size > 1) observed")
	}
	if got := m.MaxBatchSize.Load(); got != extra {
		t.Fatalf("MaxBatchSize = %d, want %d", got, extra)
	}
}

// queued reports the submission-channel depth (test hook).
func (b *Batcher) queued() int { return len(b.reqs) }

func TestBatcherShedsWhenQueueFull(t *testing.T) {
	inner := &stubDetector{name: "stub", thr: 0.5}
	gate := &gatedDetector{
		Detector: inner,
		entered:  make(chan int, 8),
		release:  make(chan struct{}),
	}
	b := newBatcher([]detect.Detector{gate}, 2, 2, nil)
	done := make(chan error, 8)
	go func() {
		_, err := b.Score(context.Background(), []byte("first"))
		done <- err
	}()
	<-gate.entered // dispatcher busy; queue is free again
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := b.Score(context.Background(), []byte(fmt.Sprintf("fill-%d", i)))
			done <- err
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.queued() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := b.Score(context.Background(), []byte("overflow")); err != ErrOverloaded {
		t.Fatalf("full queue returned %v, want ErrOverloaded", err)
	}
	gate.release <- struct{}{}
	<-gate.entered
	gate.release <- struct{}{}
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatalf("queued request failed: %v", err)
		}
	}
	b.Close()
}

func TestBatcherScoreAfterCloseAndCtxCancel(t *testing.T) {
	inner := &stubDetector{name: "stub", thr: 0.5}
	b := newBatcher([]detect.Detector{inner}, 4, 8, nil)
	if _, err := b.Score(context.Background(), []byte("x")); err != nil {
		t.Fatalf("Score before close: %v", err)
	}
	b.Close()
	if _, err := b.Score(context.Background(), []byte("x")); err != ErrClosed {
		t.Fatalf("Score after close returned %v, want ErrClosed", err)
	}
	if _, err := b.ScoreWait(context.Background(), []byte("x"), ""); err != ErrClosed {
		t.Fatalf("ScoreWait after close returned %v, want ErrClosed", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gate := &gatedDetector{Detector: inner, entered: make(chan int, 2), release: make(chan struct{}, 2)}
	b2 := newBatcher([]detect.Detector{gate}, 4, 8, nil)
	defer b2.Close()
	defer close(gate.release)
	go b2.Score(context.Background(), []byte("park the dispatcher"))
	<-gate.entered
	if _, err := b2.ScoreWait(ctx, []byte("y"), ""); err != context.Canceled {
		t.Fatalf("cancelled ScoreWait returned %v, want context.Canceled", err)
	}
}

// TestBatcherLoneScoreFlushes pins the idle case: one request with nothing
// queued behind it is flushed at once, as a batch of one, without waiting
// for company.
func TestBatcherLoneScoreFlushes(t *testing.T) {
	inner := &stubDetector{name: "stub", thr: 0.5}
	gate := &gatedDetector{Detector: inner, entered: make(chan int, 1), release: make(chan struct{}, 1)}
	var m Metrics
	b := newBatcher([]detect.Detector{gate}, 32, 64, &m)
	defer b.Close()
	defer close(gate.release) // lets Close finish a parked flush if the test fails

	raw := []byte("alone")
	done := make(chan scanOut, 1)
	go func() {
		out, err := b.Score(context.Background(), raw)
		if err != nil {
			t.Errorf("lone Score: %v", err)
		}
		done <- out
	}()
	select {
	case n := <-gate.entered:
		if n != 1 {
			t.Fatalf("lone request flushed in a batch of %d, want 1", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a lone request was never flushed")
	}
	gate.release <- struct{}{}
	if out := <-done; out.Scores[0] != inner.Score(raw) {
		t.Fatalf("lone request got score %v, want %v", out.Scores[0], inner.Score(raw))
	}
	if got := m.BatchWait.Count(); got != 1 {
		t.Fatalf("batch_wait observed %d requests, want 1", got)
	}
}

// TestBatcherFlushScoresEnginesConcurrently pins the fan-out inside a
// flush: every engine of the set is scoring before any of them finishes,
// and each result still lands in its engine's column.
func TestBatcherFlushScoresEnginesConcurrently(t *testing.T) {
	// The fan-out is bounded by GOMAXPROCS; give it two to fan out over.
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	a := &stubDetector{name: "a", thr: 0.5}
	c := &stubDetector{name: "c", thr: 0.5}
	gates := []*gatedDetector{
		{Detector: a, entered: make(chan int, 1), release: make(chan struct{}, 1)},
		{Detector: c, entered: make(chan int, 1), release: make(chan struct{}, 1)},
	}
	b := newBatcher([]detect.Detector{gates[0], gates[1]}, 32, 64, nil)
	defer b.Close()
	for _, g := range gates {
		defer close(g.release) // lets Close finish a parked flush if the test fails
	}

	raw := []byte("both engines at once")
	done := make(chan scanOut, 1)
	go func() {
		out, err := b.Score(context.Background(), raw)
		if err != nil {
			t.Errorf("Score: %v", err)
		}
		done <- out
	}()
	for i, g := range gates {
		select {
		case <-g.entered:
		case <-time.After(2 * time.Second):
			t.Fatalf("engine %d never started scoring while the other engine was parked", i)
		}
	}
	for _, g := range gates {
		g.release <- struct{}{}
	}
	out := <-done
	for i, d := range []*stubDetector{a, c} {
		if got, want := out.Scores[i], d.Score(raw); got != want {
			t.Fatalf("engine %d score %v, want %v", i, got, want)
		}
		if got, want := out.Labels[i], d.Label(raw); got != want {
			t.Fatalf("engine %d label %v, want %v", i, got, want)
		}
	}
}

// TestScoreWaitCancelledMidBackpressure pins the prompt-cancellation half
// of the backpressure contract: a ScoreWait caller parked on a full queue
// (the position an attack job's oracle query occupies under load) must
// observe its context's cancellation immediately, not after the queue
// frees up.
func TestScoreWaitCancelledMidBackpressure(t *testing.T) {
	gate := &gatedDetector{
		Detector: &stubDetector{name: "stub", thr: 0.5},
		entered:  make(chan int, 8),
		release:  make(chan struct{}, 8),
	}
	b := newBatcher([]detect.Detector{gate}, 1, 1, nil)
	defer b.Close()

	// Park the dispatcher inside a flush ...
	firstDone := make(chan error, 1)
	go func() {
		_, err := b.Score(context.Background(), []byte("first"))
		firstDone <- err
	}()
	<-gate.entered
	// ... and fill the queue behind it.
	secondDone := make(chan error, 1)
	go func() {
		_, err := b.Score(context.Background(), []byte("second"))
		secondDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for b.queued() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	// ScoreWait now blocks on the send; cancelling must release it while the
	// queue is still full.
	ctx, cancel := context.WithCancel(context.Background())
	waitErr := make(chan error, 1)
	go func() {
		_, err := b.ScoreWait(ctx, []byte("third"), "")
		waitErr <- err
	}()
	time.Sleep(5 * time.Millisecond) // let it reach the blocked send
	cancel()
	select {
	case err := <-waitErr:
		if err != context.Canceled {
			t.Fatalf("blocked ScoreWait returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ScoreWait ignored cancellation while parked on a full queue")
	}

	// Unwedge the dispatcher and confirm the legitimately queued work
	// still completes.
	gate.release <- struct{}{}
	<-gate.entered
	gate.release <- struct{}{}
	if err := <-firstDone; err != nil {
		t.Fatalf("first scan: %v", err)
	}
	if err := <-secondDone; err != nil {
		t.Fatalf("second scan: %v", err)
	}
}
