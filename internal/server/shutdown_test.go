package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mpass/internal/core"
	"mpass/internal/detect"
)

// TestGracefulShutdownDrainsInFlightWork is the graceful-shutdown gate:
// with a scan mid-flush and an attack job mid-run, Shutdown must reject new
// requests immediately, let both in-flight pieces finish, and return within
// the drain deadline.
func TestGracefulShutdownDrainsInFlightWork(t *testing.T) {
	inner := &stubDetector{name: "A", thr: 0.5}
	gate := &gatedDetector{
		Detector: inner,
		entered:  make(chan int, 8),
		release:  make(chan struct{}, 8),
	}
	attackStarted := make(chan struct{})
	attackRelease := make(chan struct{})
	// The in-flight attack deliberately skips oracle queries: its drain must
	// not depend on the batcher, which the test is holding hostage.
	blockingAttack := func(ctx context.Context, target detect.Detector, original []byte, oracle core.Oracle, seed int64) (*core.Result, error) {
		close(attackStarted)
		<-attackRelease
		ae := append(append([]byte(nil), original...), 0xCC)
		return &core.Result{Success: true, AE: ae, Queries: 0, Rounds: 1}, nil
	}

	s, err := New(Config{
		Registry: stubRegistry(t, gate),
		Attack:   blockingAttack,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// In-flight attack job.
	resp, body := postBytes(t, ts.URL+"/v1/attack", []byte("victim"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("attack status %d: %s", resp.StatusCode, body)
	}
	var ar attackResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	<-attackStarted

	// In-flight scan, parked inside the gated flush.
	scanDone := make(chan *http.Response, 1)
	go func() {
		r, _ := postBytes(t, ts.URL+"/v1/scan", []byte("mid-flight sample"))
		scanDone <- r
	}()
	<-gate.entered

	const drainDeadline = 10 * time.Second
	shutdownDone := make(chan error, 1)
	begin := time.Now()
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), drainDeadline)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Draining flips synchronously-enough: wait for /healthz to report it.
	waitUntil := time.Now().Add(5 * time.Second)
	for {
		r, _ := http.Get(ts.URL + "/healthz")
		r.Body.Close()
		if r.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(waitUntil) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(time.Millisecond)
	}

	// New work is rejected while draining.
	if r, _ := postBytes(t, ts.URL+"/v1/scan", []byte("late scan")); r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("scan during drain: status %d, want 503", r.StatusCode)
	}
	if r, _ := postBytes(t, ts.URL+"/v1/attack", []byte("late attack")); r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("attack during drain: status %d, want 503", r.StatusCode)
	}

	// Let the in-flight attack finish; the job drain completes, then the
	// batcher close waits on the parked flush, which we release next.
	close(attackRelease)
	gate.release <- struct{}{}

	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(drainDeadline):
		t.Fatal("Shutdown did not return within the drain deadline")
	}
	if elapsed := time.Since(begin); elapsed >= drainDeadline {
		t.Fatalf("drain took %v, deadline %v", elapsed, drainDeadline)
	}

	// The in-flight scan completed with a real result.
	select {
	case r := <-scanDone:
		if r.StatusCode != http.StatusOK {
			t.Fatalf("in-flight scan finished with status %d", r.StatusCode)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight scan never completed")
	}

	// The in-flight attack job reached a terminal state; polling still works
	// after drain so clients can collect results.
	var v JobView
	getJSON(t, ts.URL+ar.Poll, &v)
	if v.State != JobDone || v.Success == nil || !*v.Success {
		t.Fatalf("in-flight job finished %q success=%v", v.State, v.Success)
	}

	// Shutdown is idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestShutdownDeadlineExpiresOnStuckJob pins the bounded half of the drain
// contract: a job that never finishes makes Shutdown return ctx's error at
// the deadline instead of hanging forever.
func TestShutdownDeadlineExpiresOnStuckJob(t *testing.T) {
	stuck := make(chan struct{})
	t.Cleanup(func() { close(stuck) })
	s, err := New(Config{
		Registry: stubRegistry(t, &stubDetector{name: "A", thr: 0.5}),
		// This attack ignores its context entirely — the worst-behaved job the
		// drain contract must still bound.
		Attack: func(ctx context.Context, target detect.Detector, original []byte, oracle core.Oracle, seed int64) (*core.Result, error) {
			<-stuck
			return &core.Result{}, nil
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if resp, _ := postBytes(t, ts.URL+"/v1/attack", []byte("x")); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("attack status %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(ctx) }()
	select {
	case err := <-done:
		if err != context.DeadlineExceeded {
			t.Fatalf("Shutdown returned %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung past its deadline")
	}
}
