package tenant

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mpass/internal/telemetry"
)

var t0 = time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)

// TestBucketRefill drills the on-demand refill math: a drained bucket
// earns tokens linearly with elapsed time, clamps at burst, and reports a
// refill wait that really is the time until the next whole token.
func TestBucketRefill(t *testing.T) {
	b := newBucket(2, 4, t0) // 2 tokens/s, capacity 4, starts full
	now := t0
	for i := 0; i < 4; i++ {
		if ok, _ := b.take(now); !ok {
			t.Fatalf("take %d on a full bucket failed", i)
		}
	}
	ok, wait := b.take(now)
	if ok {
		t.Fatal("5th take on a 4-token bucket succeeded")
	}
	if wait != 500*time.Millisecond {
		t.Fatalf("empty bucket at 2/s: wait = %v, want 500ms", wait)
	}

	// 500ms mints exactly one token.
	now = now.Add(500 * time.Millisecond)
	if ok, _ := b.take(now); !ok {
		t.Fatal("take after exactly one refill period failed")
	}
	if ok, _ := b.take(now); ok {
		t.Fatal("second take in the same instant succeeded on an empty bucket")
	}

	// A long idle stretch clamps at burst, not rate*elapsed.
	now = now.Add(time.Hour)
	for i := 0; i < 4; i++ {
		if ok, _ := b.take(now); !ok {
			t.Fatalf("take %d after idle clamp failed", i)
		}
	}
	if ok, _ := b.take(now); ok {
		t.Fatal("burst clamp did not hold after a long idle stretch")
	}
}

// TestBucketClockSkew pins the now.After guard: a clock that steps
// backwards must not mint negative refill or move `last` back.
func TestBucketClockSkew(t *testing.T) {
	b := newBucket(1, 2, t0)
	if ok, _ := b.take(t0.Add(-time.Hour)); !ok {
		t.Fatal("take with a skewed-back clock failed on a full bucket")
	}
	if b.tokens != 1 {
		t.Fatalf("tokens = %v after skewed take, want 1", b.tokens)
	}
	if !b.last.Equal(t0) {
		t.Fatalf("last moved backwards to %v", b.last)
	}
}

// TestBucketUnmetered: rate 0 admits unconditionally.
func TestBucketUnmetered(t *testing.T) {
	b := newBucket(0, 0, t0)
	for i := 0; i < 1000; i++ {
		if ok, _ := b.take(t0); !ok {
			t.Fatalf("unmetered take %d failed", i)
		}
	}
}

// TestBucketReconfigure: a retune keeps the current fill (clamped to the
// new capacity) rather than handing out a fresh burst.
func TestBucketReconfigure(t *testing.T) {
	b := newBucket(10, 10, t0)
	for i := 0; i < 8; i++ {
		b.take(t0)
	}
	// 2 tokens left; growing the burst must not refill.
	b.reconfigure(10, 100)
	if b.tokens != 2 {
		t.Fatalf("tokens after growing burst = %v, want 2", b.tokens)
	}
	// Shrinking below the fill clamps.
	b.reconfigure(10, 1)
	if b.tokens != 1 {
		t.Fatalf("tokens after shrinking burst = %v, want 1", b.tokens)
	}
}

func TestNormalizeBurst(t *testing.T) {
	for _, tc := range []struct {
		rate  float64
		burst int
		want  int
	}{
		{rate: 10, burst: 5, want: 5},
		{rate: 10, burst: 0, want: 10},
		{rate: 2.5, burst: 0, want: 3},
		{rate: 0.25, burst: 0, want: 1},
		{rate: 0, burst: 0, want: 1},
	} {
		if got := normalizeBurst(tc.rate, tc.burst); got != tc.want {
			t.Errorf("normalizeBurst(%v, %d) = %d, want %d", tc.rate, tc.burst, got, tc.want)
		}
	}
}

// TestParseAllowlist tables the validation: every malformed document is a
// loud error, never a silently admitted tenant.
func TestParseAllowlist(t *testing.T) {
	for _, tc := range []struct {
		name string
		doc  string
		ok   bool
	}{
		{"valid", `{"tenants":[{"name":"a","key":"k1"},{"name":"b","key":"k2","rate_per_sec":5,"burst":10,"max_in_flight":3}]}`, true},
		{"bad json", `{"tenants":`, false},
		{"empty", `{"tenants":[]}`, false},
		{"no name", `{"tenants":[{"key":"k1"}]}`, false},
		{"no key", `{"tenants":[{"name":"a"}]}`, false},
		{"dup name", `{"tenants":[{"name":"a","key":"k1"},{"name":"a","key":"k2"}]}`, false},
		{"dup key", `{"tenants":[{"name":"a","key":"k1"},{"name":"b","key":"k1"}]}`, false},
		{"negative rate", `{"tenants":[{"name":"a","key":"k1","rate_per_sec":-1}]}`, false},
		{"negative burst", `{"tenants":[{"name":"a","key":"k1","burst":-1}]}`, false},
		{"negative inflight", `{"tenants":[{"name":"a","key":"k1","max_in_flight":-1}]}`, false},
	} {
		_, err := ParseAllowlist([]byte(tc.doc))
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

// TestAdmitLifecycle walks one tenant through every Admit outcome:
// unauthenticated, admitted, in-flight saturation, release idempotence,
// and a dry bucket with a positive refill wait.
func TestAdmitLifecycle(t *testing.T) {
	tb := NewTable([]Tenant{
		{Name: "a", Key: "ka", RatePerSec: 2, Burst: 100, MaxInFlight: 2},
	}, t0)

	if _, err := tb.Admit("", t0); !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("empty key: err = %v, want ErrUnauthenticated", err)
	}
	if _, err := tb.Admit("nope", t0); !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("unknown key: err = %v, want ErrUnauthenticated", err)
	}

	g1, err := tb.Admit("ka", t0)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Tenant() != "a" {
		t.Fatalf("grant tenant = %q, want a", g1.Tenant())
	}
	g2, err := tb.Admit("ka", t0)
	if err != nil {
		t.Fatal(err)
	}

	// Third concurrent request exceeds MaxInFlight 2.
	_, err = tb.Admit("ka", t0)
	var qe *QuotaError
	if !errors.As(err, &qe) || !qe.Saturated {
		t.Fatalf("over in-flight share: err = %v, want saturated QuotaError", err)
	}
	if qe.RetryAfter <= 0 {
		t.Fatalf("saturated RetryAfter = %v, want > 0", qe.RetryAfter)
	}

	// Release frees the slot; double Release must not free two.
	g1.Release()
	g1.Release()
	g3, err := tb.Admit("ka", t0)
	if err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	if _, err := tb.Admit("ka", t0); err == nil {
		t.Fatal("double release freed two slots")
	}
	g2.Release()
	g3.Release()

	// Drain the bucket: burst 100 minus the 3 successful admits above
	// (rejections charged nothing) leaves 97.
	for i := 0; i < 97; i++ {
		g, err := tb.Admit("ka", t0)
		if err != nil {
			t.Fatalf("drain admit %d: %v", i, err)
		}
		g.Release()
	}
	_, err = tb.Admit("ka", t0)
	if !errors.As(err, &qe) || qe.Saturated {
		t.Fatalf("dry bucket: err = %v, want rate QuotaError", err)
	}
	if qe.RetryAfter <= 0 {
		t.Fatalf("dry bucket RetryAfter = %v, want > 0", qe.RetryAfter)
	}

	// A bucket rejection must not leak the in-flight slot it provisionally
	// claimed: after refill, both in-flight slots are still available.
	later := t0.Add(time.Minute)
	ga, err := tb.Admit("ka", later)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := tb.Admit("ka", later)
	if err != nil {
		t.Fatalf("second admit after refill: %v (rate rejection leaked an in-flight slot?)", err)
	}
	ga.Release()
	gb.Release()

	// Two saturated rejections above: the third concurrent admit and the
	// double-release probe.
	m := tb.Metrics()["a"]
	if m.Saturated.Load() != 2 || m.RateLimited.Load() != 1 {
		t.Fatalf("saturated=%d rate_limited=%d, want 2 and 1", m.Saturated.Load(), m.RateLimited.Load())
	}
	if m.InFlight.Load() != 0 {
		t.Fatalf("in_flight = %d after all releases, want 0", m.InFlight.Load())
	}
}

// TestLookupChargesNothing: authenticating a poll must not touch the
// bucket or the in-flight count.
func TestLookupChargesNothing(t *testing.T) {
	tb := NewTable([]Tenant{{Name: "a", Key: "ka", RatePerSec: 1, Burst: 1, MaxInFlight: 1}}, t0)
	for i := 0; i < 100; i++ {
		if name, ok := tb.Lookup("ka"); !ok || name != "a" {
			t.Fatalf("Lookup = %q, %v", name, ok)
		}
	}
	if _, ok := tb.Lookup("nope"); ok {
		t.Fatal("Lookup admitted an unknown key")
	}
	if _, ok := tb.Lookup(""); ok {
		t.Fatal("Lookup admitted an empty key")
	}
	g, err := tb.Admit("ka", t0)
	if err != nil {
		t.Fatalf("admit after 100 lookups: %v (lookups charged the bucket?)", err)
	}
	g.Release()
}

func writeAllowlist(t *testing.T, path, doc string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReloadPreservesState is the hot-reload contract: a reload that
// rotates a tenant's key and retunes its quota keeps the bucket fill and
// metrics (paired by name), drops removed tenants, and a broken file
// leaves the serving table untouched.
func TestReloadPreservesState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	writeAllowlist(t, path, `{"tenants":[
		{"name":"a","key":"ka","rate_per_sec":10,"burst":10},
		{"name":"b","key":"kb","rate_per_sec":10,"burst":10}
	]}`)
	tb, err := LoadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}

	// Spend 7 of a's tokens and record 3 scans.
	now := time.Now()
	for i := 0; i < 7; i++ {
		g, err := tb.Admit("ka", now)
		if err != nil {
			t.Fatal(err)
		}
		if i < 3 {
			g.CountScan()
		}
		g.Release()
	}

	// Rotate a's key, raise its burst, drop b.
	writeAllowlist(t, path, `{"tenants":[
		{"name":"a","key":"ka-rotated","rate_per_sec":0.001,"burst":10}
	]}`)
	n, err := tb.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || tb.Len() != 1 {
		t.Fatalf("reload count = %d, Len = %d, want 1 and 1", n, tb.Len())
	}
	if _, ok := tb.Lookup("ka"); ok {
		t.Fatal("rotated-out key still authenticates")
	}
	if _, ok := tb.Lookup("kb"); ok {
		t.Fatal("removed tenant still authenticates")
	}

	// The surviving entry kept its fill: 3 tokens remain (rate is now
	// ~0, so no refill interferes), and its metrics are continuous.
	for i := 0; i < 3; i++ {
		g, err := tb.Admit("ka-rotated", now)
		if err != nil {
			t.Fatalf("post-rotation admit %d: %v (bucket fill reset?)", i, err)
		}
		g.Release()
	}
	if _, err := tb.Admit("ka-rotated", now); err == nil {
		t.Fatal("reload refilled the bucket: 11th token granted")
	}
	if scans := tb.Metrics()["a"].Scans.Load(); scans != 3 {
		t.Fatalf("scans after reload = %d, want 3 (metrics reset?)", scans)
	}

	// A broken file must leave the current table serving.
	writeAllowlist(t, path, `{"tenants":[]}`)
	if _, err := tb.Reload(); err == nil {
		t.Fatal("reload of an empty allowlist succeeded")
	}
	if _, ok := tb.Lookup("ka-rotated"); !ok {
		t.Fatal("failed reload clobbered the serving table")
	}
}

// TestIsAdmin: the admin bit gates operator actions — set only by an
// explicit "admin": true entry, never for unknown/empty keys, charged
// nothing, and retuned in place by a reload (grant and revoke both).
func TestIsAdmin(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	writeAllowlist(t, path, `{"tenants":[
		{"name":"ops","key":"kops","admin":true},
		{"name":"a","key":"ka","rate_per_sec":1,"burst":1}
	]}`)
	tb, err := LoadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	if !tb.IsAdmin("kops") {
		t.Fatal("admin entry's key is not admin")
	}
	for _, key := range []string{"ka", "nope", ""} {
		if tb.IsAdmin(key) {
			t.Fatalf("IsAdmin(%q) = true, want false", key)
		}
	}
	// IsAdmin is auth-only: a's single token must still be there.
	if g, err := tb.Admit("ka", time.Now()); err != nil {
		t.Fatalf("admit after IsAdmin probes: %v (probe charged the bucket?)", err)
	} else {
		g.Release()
	}

	// A reload flips the bit in place: ops demoted, a promoted.
	writeAllowlist(t, path, `{"tenants":[
		{"name":"ops","key":"kops"},
		{"name":"a","key":"ka","rate_per_sec":1,"burst":1,"admin":true}
	]}`)
	if _, err := tb.Reload(); err != nil {
		t.Fatal(err)
	}
	if tb.IsAdmin("kops") {
		t.Fatal("demoted tenant kept the admin bit across reload")
	}
	if !tb.IsAdmin("ka") {
		t.Fatal("promoted tenant did not gain the admin bit across reload")
	}
}

// TestReloadWithoutPath: a literal-list table refuses to Reload rather
// than silently doing nothing.
func TestReloadWithoutPath(t *testing.T) {
	tb := NewTable([]Tenant{{Name: "a", Key: "ka"}}, t0)
	if _, err := tb.Reload(); err == nil {
		t.Fatal("Reload on a pathless table succeeded")
	}
}

// TestMerge checks the gateway rollup of two replicas' sets for one
// tenant: counters and the in-flight gauge sum, histogram buckets add
// element-wise, and the mean is re-derived from the merged population.
func TestMerge(t *testing.T) {
	var ma, mb Metrics
	ma.Admitted.Store(2)
	mb.Admitted.Store(3)
	ma.RateLimited.Store(1)
	ma.InFlight.Store(1)
	mb.InFlight.Store(2)
	ma.ScanLatency.Observe(2 * time.Millisecond)
	mb.ScanLatency.Observe(4 * time.Millisecond)
	mb.ScanLatency.Observe(6 * time.Millisecond)

	var got Metrics
	telemetry.Merge(&got, &ma)
	telemetry.Merge(&got, &mb)
	if got.Admitted.Load() != 5 || got.RateLimited.Load() != 1 || got.InFlight.Load() != 3 {
		t.Fatalf("merged admitted=%d rate_limited=%d in_flight=%d, want 5/1/3",
			got.Admitted.Load(), got.RateLimited.Load(), got.InFlight.Load())
	}
	b, err := json.Marshal(&got.ScanLatency)
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Count  int64   `json:"count"`
		MeanMs float64 `json:"mean_ms"`
		Counts []int64 `json:"counts"`
	}
	if err := json.Unmarshal(b, &h); err != nil {
		t.Fatal(err)
	}
	if h.Count != 3 {
		t.Fatalf("merged latency count = %d, want 3", h.Count)
	}
	if want := 4.0; h.MeanMs != want {
		t.Fatalf("merged mean = %v ms, want %v", h.MeanMs, want)
	}
	var total int64
	for _, c := range h.Counts {
		total += c
	}
	if total != 3 {
		t.Fatalf("merged bucket counts sum to %d, want 3", total)
	}
}

// TestConcurrentAdmitReload races admission against reloads under -race:
// the atomic snapshot must keep Admit lock-free and consistent while the
// allowlist swaps underneath it.
func TestConcurrentAdmitReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	doc := func(gen int) string {
		return fmt.Sprintf(`{"tenants":[
			{"name":"a","key":"ka","rate_per_sec":1000000,"burst":1000000,"max_in_flight":%d},
			{"name":"b","key":"kb","rate_per_sec":1000000}
		]}`, 4+gen%4)
	}
	writeAllowlist(t, path, doc(0))
	tb, err := LoadTable(path)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				g, err := tb.Admit(key, time.Now())
				if err == nil {
					g.CountScan()
					g.ObserveScanLatency(time.Millisecond)
					g.Release()
				} else if errors.Is(err, ErrUnauthenticated) {
					// Keys never rotate in this drill; auth must hold.
					panic("resident key rejected mid-reload")
				}
			}
		}([]string{"ka", "kb"}[w%2])
	}
	for gen := 1; gen <= 20; gen++ {
		writeAllowlist(t, path, doc(gen))
		if _, err := tb.Reload(); err != nil {
			t.Errorf("reload %d: %v", gen, err)
		}
		var snap Metrics
		telemetry.Merge(&snap, tb.Metrics()["a"])
	}
	close(stop)
	wg.Wait()

	m := tb.Metrics()
	if m["a"].InFlight.Load() != 0 || m["b"].InFlight.Load() != 0 {
		t.Fatalf("in-flight gauge leaked: a=%d b=%d", m["a"].InFlight.Load(), m["b"].InFlight.Load())
	}
}
