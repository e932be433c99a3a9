package server

import (
	"math"
	"testing"
	"time"
)

// TestRetryAfterSecs tables the drain-rate estimator shared by replicas
// and the gateway, pinning the cold-start guards: with no observed
// completions (or a non-positive uptime) there is no rate to divide by,
// and the answer must be the minimum legal hint — never a division by
// zero, never "Retry-After: 0".
func TestRetryAfterSecs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		backlog   int
		completed int64
		upSeconds float64
		want      int
	}{
		{"cold start: nothing completed", 100, 0, 10, 1},
		{"cold start: zero uptime", 100, 50, 0, 1},
		{"cold start: negative uptime (clock step)", 100, 50, -3, 1},
		{"cold start: both zero", 0, 0, 0, 1},
		{"zero backlog still floors at 1", 0, 1000, 1, 1},
		{"steady state", 9, 10, 10, 10},
		{"fractional estimate rounds up", 1, 3, 2, 2}, // 2 / 1.5 = 1.33 -> 2
		{"exactly the floor", 0, 1, 1, 1},
		{"exactly the ceiling", 59, 1, 1, 60},
		{"above the ceiling clamps", 1000, 1, 100, 60},
		{"huge backlog, tiny rate", 1 << 30, 1, 3600, 60},
		// The gateway's inputs: summed replica backlog over scans routed
		// since the gateway started.
		{"gateway cold start: backlog but nothing routed yet", 40, 0, 5, 1},
		{"gateway NaN uptime floors at 1", 40, 100, math.NaN(), 1},
	} {
		if got := RetryAfterSecs(tc.backlog, tc.completed, tc.upSeconds); got != tc.want {
			t.Errorf("%s: RetryAfterSecs(%d, %d, %v) = %d, want %d",
				tc.name, tc.backlog, tc.completed, tc.upSeconds, got, tc.want)
		}
	}
}

// TestClampRetrySecs drills the clamp boundaries, including the float
// oddities the division could produce: NaN fails every comparison, so the
// `!(secs >= 1)` floor must catch it.
func TestClampRetrySecs(t *testing.T) {
	for _, tc := range []struct {
		secs float64
		want int
	}{
		{math.NaN(), 1},
		{math.Inf(-1), 1},
		{math.Inf(1), 60},
		{-5, 1},
		{0, 1},
		{0.5, 1},
		{1, 1},
		{59.9, 59},
		{60, 60},
		{60.1, 60},
		{1e12, 60},
	} {
		if got := clampRetrySecs(tc.secs); got != tc.want {
			t.Errorf("clampRetrySecs(%v) = %d, want %d", tc.secs, got, tc.want)
		}
	}
}

// TestRetryAfterQuota checks the token-bucket refill rendering: whole
// seconds rounded up, floored at 1 (a sub-second refill must not tell the
// client "retry in 0"), capped at 60.
func TestRetryAfterQuota(t *testing.T) {
	for _, tc := range []struct {
		wait time.Duration
		want string
	}{
		{0, "1"},
		{-time.Second, "1"},
		{time.Millisecond, "1"},
		{500 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1200 * time.Millisecond, "2"},
		{59 * time.Second, "59"},
		{90 * time.Second, "60"},
	} {
		if got := retryAfterQuota(tc.wait); got != tc.want {
			t.Errorf("retryAfterQuota(%v) = %q, want %q", tc.wait, got, tc.want)
		}
	}
}

// TestRetryAfterColdServer pins the estimator at the HTTP layer's inputs:
// a server that has completed nothing yet must advertise the floor hint,
// not crash or emit 0.
func TestRetryAfterColdServer(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if got := s.retryAfterScan(); got != "1" {
		t.Errorf("cold retryAfterScan = %q, want \"1\"", got)
	}
	if got := s.retryAfterAttack(); got != "1" {
		t.Errorf("cold retryAfterAttack = %q, want \"1\"", got)
	}
}
