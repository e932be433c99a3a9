package server

import (
	"math"
	"testing"
	"time"
)

// TestRetryAfterSecs tables the drain-rate estimator shared by replicas
// and the gateway, pinning the cold-start guards: with no observed
// completions (or a non-positive window) there is no rate to divide by,
// and the answer must be the minimum legal hint — never a division by
// zero, never "Retry-After: 0". Rows with perSec replay that many
// completions per second of the owner's life into a DrainRate and ask it
// at the end of the last second; their comments give the answer the old
// lifetime average (all completions over all uptime) would have given.
func TestRetryAfterSecs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		backlog   int
		completed int64
		upSeconds float64
		perSec    []int64
		want      int
	}{
		{name: "cold start: nothing completed", backlog: 100, completed: 0, upSeconds: 10, want: 1},
		{name: "cold start: zero uptime", backlog: 100, completed: 50, upSeconds: 0, want: 1},
		{name: "cold start: negative uptime (clock step)", backlog: 100, completed: 50, upSeconds: -3, want: 1},
		{name: "cold start: both zero", backlog: 0, completed: 0, upSeconds: 0, want: 1},
		{name: "zero backlog still floors at 1", backlog: 0, completed: 1000, upSeconds: 1, want: 1},
		{name: "steady state", backlog: 9, completed: 10, upSeconds: 10, want: 10},
		{name: "fractional estimate rounds up", backlog: 1, completed: 3, upSeconds: 2, want: 2}, // 2 / 1.5 = 1.33 -> 2
		{name: "exactly the floor", backlog: 0, completed: 1, upSeconds: 1, want: 1},
		{name: "exactly the ceiling", backlog: 59, completed: 1, upSeconds: 1, want: 60},
		{name: "above the ceiling clamps", backlog: 1000, completed: 1, upSeconds: 100, want: 60},
		{name: "huge backlog, tiny rate", backlog: 1 << 30, completed: 1, upSeconds: 3600, want: 60},
		// The gateway's inputs: summed replica backlog over scans routed
		// recently.
		{name: "gateway cold start: backlog but nothing routed yet", backlog: 40, completed: 0, upSeconds: 5, want: 1},
		{name: "gateway NaN uptime floors at 1", backlog: 40, completed: 100, upSeconds: math.NaN(), want: 1},
		// An idle hour, then 200/s for 5 s: the last 9 s hold 1000
		// completions, so 501 / 111/s -> 5. Lifetime: 1000 over 3605 s -> 60.
		{name: "idle -> burst", backlog: 500, perSec: seconds(3600, 0, 5, 200), want: 5},
		// 1000/s for 10 s, then an hour at 1/s: 21 at 1/s -> 21. Lifetime:
		// 13600 over 3610 s is 3.8/s -> 6, a third of the real wait.
		{name: "burst -> idle", backlog: 20, perSec: seconds(10, 1000, 3600, 1), want: 21},
		// The burst is all there is, and it left the window long ago: no
		// recent rate, so the floor. Lifetime: 10000 over 3610 s -> 8.
		{name: "burst -> silence", backlog: 20, perSec: seconds(10, 1000, 3600, 0), want: 1},
	} {
		got := RetryAfterSecs(tc.backlog, tc.completed, tc.upSeconds)
		if tc.perSec != nil {
			start := time.Unix(1_000_000_000, 0)
			d := NewDrainRate(start)
			for k, n := range tc.perSec {
				d.Add(start.Add(time.Duration(k)*time.Second+500*time.Millisecond), n)
			}
			got = d.RetryAfterSecs(tc.backlog, start.Add(time.Duration(len(tc.perSec))*time.Second))
		}
		if got != tc.want {
			t.Errorf("%s: RetryAfterSecs(%d, %d, %v, %d s replayed) = %d, want %d",
				tc.name, tc.backlog, tc.completed, tc.upSeconds, len(tc.perSec), got, tc.want)
		}
	}
}

// seconds spells a completion history: n1 seconds at rate r1, then n2
// seconds at rate r2.
func seconds(n1 int, r1 int64, n2 int, r2 int64) []int64 {
	h := make([]int64, 0, n1+n2)
	for i := 0; i < n1; i++ {
		h = append(h, r1)
	}
	for i := 0; i < n2; i++ {
		h = append(h, r2)
	}
	return h
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
