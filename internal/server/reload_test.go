package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpass/internal/core"
	"mpass/internal/detect"
	"mpass/internal/engine"
)

// fakeEngine is a minimal engine.Driver whose score, version, and health are
// test-controlled — the levers the reload handler's gates are exercised with.
// rows counts the samples its ScoreBatch has scored.
type fakeEngine struct {
	name      string
	version   string
	score     float64
	healthErr error
	rows      atomic.Int64
}

func (f *fakeEngine) Name() string             { return f.name }
func (f *fakeEngine) Score(raw []byte) float64 { return f.score }
func (f *fakeEngine) Label(raw []byte) bool    { return f.score >= 0.5 }
func (f *fakeEngine) Threshold() float64       { return 0.5 }
func (f *fakeEngine) Version() string          { return f.version }
func (f *fakeEngine) Health() error            { return f.healthErr }
func (f *fakeEngine) ScoreBatch(raws [][]byte) []float64 {
	f.rows.Add(int64(len(raws)))
	out := make([]float64, len(raws))
	for i := range out {
		out[i] = f.score
	}
	return out
}

func engineSet(t *testing.T, drivers ...engine.Driver) *engine.Set {
	t.Helper()
	set, err := engine.NewSet(drivers...)
	if err != nil {
		t.Fatalf("NewSet: %v", err)
	}
	return set
}

// registryServer is newTestServer for registry-backed configs (which must not
// carry the stub Detectors default).
func registryServer(t *testing.T, cfg Config, initial *engine.Set) (*Server, *httptest.Server) {
	t.Helper()
	reg, err := engine.NewRegistry(initial)
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	cfg.Registry = reg
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func TestReloadRequiresLoader(t *testing.T) {
	initial := engineSet(t, &fakeEngine{name: "M", version: "vA", score: 0.25})
	_, ts := registryServer(t, Config{}, initial)
	resp, body := postBytes(t, ts.URL+"/v1/models/reload", []byte("x"))
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("reload without loader: status %d (%s), want 501", resp.StatusCode, body)
	}
}

// TestReloadSwapsGenerationAndPurgesCache walks the whole happy path: scan
// under the old generation (priming the cache), swap, and verify the scan
// response version, the scores, /healthz per-engine versions, and the cache
// segmentation all moved to the new generation — the stale-score regression
// test for the (version, content-hash) cache key.
func TestReloadSwapsGenerationAndPurgesCache(t *testing.T) {
	setA := engineSet(t, &fakeEngine{name: "M", version: "vA", score: 0.25})
	setB := engineSet(t, &fakeEngine{name: "M", version: "vB", score: 0.75})
	var pending atomic.Pointer[engine.Set]
	pending.Store(setB)
	s, ts := registryServer(t, Config{
		Reload: func(path string) (*engine.Set, error) { return pending.Load(), nil },
	}, setA)

	raw := []byte("same content, two generations")
	var before scanResponse
	resp, body := postBytes(t, ts.URL+"/v1/scan", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scan: status %d (%s)", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &before); err != nil {
		t.Fatal(err)
	}
	if before.ModelVersion != setA.Version() || before.Results[0].Score != 0.25 {
		t.Fatalf("pre-reload scan = %+v, want version %s score 0.25", before, setA.Version())
	}
	// Prime the cache: a second scan of the same bytes must hit.
	resp, body = postBytes(t, ts.URL+"/v1/scan", raw)
	json.Unmarshal(body, &before)
	if !before.Cached {
		t.Fatal("second scan of identical bytes missed the cache")
	}

	resp, body = postBytes(t, ts.URL+"/v1/models/reload", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d (%s)", resp.StatusCode, body)
	}
	var rr reloadResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Swapped || rr.PreviousVersion != setA.Version() || rr.ModelVersion != setB.Version() {
		t.Fatalf("reload response %+v, want swap %s -> %s", rr, setA.Version(), setB.Version())
	}
	if rr.CachePurged != 1 {
		t.Fatalf("reload purged %d cache entries, want 1", rr.CachePurged)
	}
	if rr.ProbeSamples == 0 {
		t.Fatal("reload certified against zero probe samples")
	}
	if len(rr.Engines) != 1 || rr.Engines[0].Version != "vB" || !rr.Engines[0].Healthy {
		t.Fatalf("reload engines = %+v", rr.Engines)
	}

	// The same bytes now score under the new generation — not the cached old
	// score, not a stale version stamp.
	var after scanResponse
	resp, body = postBytes(t, ts.URL+"/v1/scan", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-reload scan: status %d (%s)", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if after.Cached {
		t.Fatal("post-reload scan answered from the old generation's cache")
	}
	if after.ModelVersion != setB.Version() || after.Results[0].Score != 0.75 {
		t.Fatalf("post-reload scan = %+v, want version %s score 0.75", after, setB.Version())
	}

	var h HealthStatus
	getJSON(t, ts.URL+"/healthz", &h)
	if h.ModelVersion != setB.Version() {
		t.Fatalf("healthz version %s, want %s", h.ModelVersion, setB.Version())
	}
	if len(h.Engines) != 1 || h.Engines[0].Name != "M" || h.Engines[0].Version != "vB" {
		t.Fatalf("healthz engines = %+v", h.Engines)
	}
	if got := s.metrics.Reloads.Load(); got != 1 {
		t.Fatalf("Reloads = %d, want 1", got)
	}
	if got := s.metrics.CachePurged.Load(); got != 1 {
		t.Fatalf("CachePurged = %d, want 1", got)
	}
}

// TestReloadRejectsUncertifiableSets: loader errors, unhealthy engines, and
// non-finite scores all answer 422 and leave the old generation serving.
func TestReloadRejectsUncertifiableSets(t *testing.T) {
	setA := engineSet(t, &fakeEngine{name: "M", version: "vA", score: 0.25})
	var pending atomic.Pointer[engine.Set]
	var loadErr atomic.Bool
	s, ts := registryServer(t, Config{
		Reload: func(path string) (*engine.Set, error) {
			if loadErr.Load() {
				return nil, fmt.Errorf("model file corrupt")
			}
			return pending.Load(), nil
		},
	}, setA)

	cases := []struct {
		name string
		prep func()
	}{
		{"loader error", func() { loadErr.Store(true) }},
		{"nil set", func() { loadErr.Store(false); pending.Store(nil) }},
		{"unhealthy engine", func() {
			pending.Store(engineSet(t, &fakeEngine{name: "M", version: "vBad", score: 0.5,
				healthErr: fmt.Errorf("weights missing")}))
		}},
		{"non-finite scores", func() {
			pending.Store(engineSet(t, &fakeEngine{name: "M", version: "vNaN", score: math.NaN()}))
		}},
	}
	for i, c := range cases {
		c.prep()
		resp, body := postBytes(t, ts.URL+"/v1/models/reload", nil)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d (%s), want 422", c.name, resp.StatusCode, body)
		}
		if got := s.metrics.ReloadFailures.Load(); got != int64(i+1) {
			t.Fatalf("%s: ReloadFailures = %d, want %d", c.name, got, i+1)
		}
	}
	// The old generation never stopped serving.
	var sr scanResponse
	resp, body := postBytes(t, ts.URL+"/v1/scan", []byte("still here"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scan after failed reloads: status %d (%s)", resp.StatusCode, body)
	}
	json.Unmarshal(body, &sr)
	if sr.ModelVersion != setA.Version() || sr.Results[0].Score != 0.25 {
		t.Fatalf("scan after failed reloads = %+v, want untouched generation %s", sr, setA.Version())
	}
	if got := s.metrics.Reloads.Load(); got != 0 {
		t.Fatalf("Reloads = %d after only failures", got)
	}
}

func TestReloadPassesPathOverride(t *testing.T) {
	setA := engineSet(t, &fakeEngine{name: "M", version: "vA", score: 0.25})
	var gotPath atomic.Value
	_, ts := registryServer(t, Config{
		Reload: func(path string) (*engine.Set, error) {
			gotPath.Store(path)
			return setA, nil
		},
	}, setA)
	resp, body := postBytes(t, ts.URL+"/v1/models/reload?path=/models/candidate", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d (%s)", resp.StatusCode, body)
	}
	if got := gotPath.Load(); got != "/models/candidate" {
		t.Fatalf("loader saw path %q, want /models/candidate", got)
	}
	// Reloading the same set is a no-op swap but still a swap: same version.
	var rr reloadResponse
	json.Unmarshal(body, &rr)
	if rr.ModelVersion != setA.Version() || rr.PreviousVersion != setA.Version() {
		t.Fatalf("same-set reload = %+v", rr)
	}
}

// TestAttackJobReportsGenerationStraddle: a reload landing while an attack
// runs must not break the job, and the job view must record both the
// submit-time generation and the finish-time one.
func TestAttackJobReportsGenerationStraddle(t *testing.T) {
	setA := engineSet(t, &fakeEngine{name: "M", version: "vA", score: 0.25})
	setB := engineSet(t, &fakeEngine{name: "M", version: "vB", score: 0.75})
	var pending atomic.Pointer[engine.Set]
	pending.Store(setB)

	started := make(chan struct{})
	gate := make(chan struct{})
	attack := func(ctx context.Context, target detect.Detector, original []byte, oracle core.Oracle, seed int64) (*core.Result, error) {
		if _, err := core.QueryOracle(ctx, oracle, original); err != nil {
			return nil, err
		}
		close(started)
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		// This query runs against the post-reload generation.
		if _, err := core.QueryOracle(ctx, oracle, append(original, 0x01)); err != nil {
			return nil, err
		}
		return &core.Result{Success: true, AE: original, Queries: 2, Rounds: 1}, nil
	}
	_, ts := registryServer(t, Config{
		Attack: attack,
		Reload: func(path string) (*engine.Set, error) { return pending.Load(), nil },
	}, setA)

	resp, body := postBytes(t, ts.URL+"/v1/attack?target=M", []byte("victim"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("attack: status %d (%s)", resp.StatusCode, body)
	}
	var ar attackResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	<-started

	resp, body = postBytes(t, ts.URL+"/v1/models/reload", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mid-attack reload: status %d (%s)", resp.StatusCode, body)
	}
	close(gate)

	v := pollTerminal(t, ts.URL+ar.Poll)
	if v.State != JobDone {
		t.Fatalf("job state %s (%s), want done", v.State, v.Error)
	}
	if v.ModelVersion != setA.Version() {
		t.Fatalf("job submit version %s, want %s", v.ModelVersion, setA.Version())
	}
	if v.ModelVersionAtFinish != setB.Version() {
		t.Fatalf("job finish version %q, want %s (the straddle must be visible)",
			v.ModelVersionAtFinish, setB.Version())
	}
}

// TestReloadUnderLoadDrill is the acceptance drill, run under -race in CI:
// sustained concurrent scans and an attack job while generations swap back
// and forth. Every response must succeed (zero 5xx, zero sheds), every
// response's scores must exactly match the generation its version stamp
// names (zero mixed-version responses), and reloading weights whose bytes
// equal the original generation's must reproduce its version and its scores
// bit for bit.
func TestReloadUnderLoadDrill(t *testing.T) {
	mkDriver := func(name string, seed int64) *engine.ConvDriver {
		drv, err := engine.NewConvDriver(convDetector(t, name, seed))
		if err != nil {
			t.Fatalf("NewConvDriver: %v", err)
		}
		return drv
	}
	setA := engineSet(t, mkDriver("M", 1), mkDriver("N", 2))
	setB := engineSet(t, mkDriver("M", 3), mkDriver("N", 4))
	// Same construction, same seeds: byte-identical weights, so the driver
	// digests — and the set version — must equal setA's.
	setA2 := engineSet(t, mkDriver("M", 1), mkDriver("N", 2))
	if setA2.Version() != setA.Version() {
		t.Fatalf("identical weights digest to different set versions: %s vs %s",
			setA2.Version(), setA.Version())
	}
	if setB.Version() == setA.Version() {
		t.Fatal("distinct weights share a set version")
	}

	bodies := randomRaws(77, 12, 2048)
	// Ground truth per generation, computed outside the server.
	expected := map[string][][]float64{}
	for _, set := range []*engine.Set{setA, setB} {
		scores := make([][]float64, len(bodies))
		for i, raw := range bodies {
			row := make([]float64, set.Len())
			for j, d := range set.Drivers() {
				row[j] = d.Score(raw)
			}
			scores[i] = row
		}
		expected[set.Version()] = scores
	}

	var pending atomic.Pointer[engine.Set]
	pending.Store(setB)
	_, ts := registryServer(t, Config{
		Attack:    loopingAttack(64),
		Reload:    func(path string) (*engine.Set, error) { return pending.Load(), nil },
		ScanQueue: 4096,
		CacheSize: 4096,
	}, setA)

	resp, body := postBytes(t, ts.URL+"/v1/attack?target=M", bodies[0])
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("attack: status %d (%s)", resp.StatusCode, body)
	}
	var ar attackResponse
	json.Unmarshal(body, &ar)

	const workers, scansPerWorker = 6, 80
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < scansPerWorker; i++ {
				raw := bodies[(w+i)%len(bodies)]
				resp, body := postBytes(t, ts.URL+"/v1/scan", raw)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("worker %d scan %d: status %d (%s)", w, i, resp.StatusCode, body)
					return
				}
				var sr scanResponse
				if err := json.Unmarshal(body, &sr); err != nil {
					t.Errorf("worker %d scan %d: %v", w, i, err)
					return
				}
				want, ok := expected[sr.ModelVersion]
				if !ok {
					t.Errorf("worker %d scan %d: unknown model version %q", w, i, sr.ModelVersion)
					return
				}
				row := want[(w+i)%len(bodies)]
				if len(sr.Results) != len(row) {
					t.Errorf("worker %d scan %d: %d results", w, i, len(sr.Results))
					return
				}
				for j := range row {
					// Exact equality: a response stamped with a generation must
					// carry that generation's scores bit for bit, for every
					// engine — a mix would betray a torn snapshot.
					if sr.Results[j].Score != row[j] {
						t.Errorf("worker %d scan %d engine %d: score %v under version %s, want %v",
							w, i, j, sr.Results[j].Score, sr.ModelVersion, row[j])
						return
					}
				}
			}
		}(w)
	}

	// Swap generations back and forth under the load.
	next := []*engine.Set{setB, setA, setB, setA, setB}
	for _, set := range next {
		pending.Store(set)
		resp, body := postBytes(t, ts.URL+"/v1/models/reload", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reload under load: status %d (%s)", resp.StatusCode, body)
		}
		var rr reloadResponse
		json.Unmarshal(body, &rr)
		if rr.ModelVersion != set.Version() {
			t.Fatalf("reload landed on %s, want %s", rr.ModelVersion, set.Version())
		}
		time.Sleep(20 * time.Millisecond)
	}
	wg.Wait()

	// Final swap to the reconstructed original weights: same bytes, same
	// version, bit-identical scores.
	pending.Store(setA2)
	resp, body = postBytes(t, ts.URL+"/v1/models/reload", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final reload: status %d (%s)", resp.StatusCode, body)
	}
	var rr reloadResponse
	json.Unmarshal(body, &rr)
	if rr.ModelVersion != setA.Version() {
		t.Fatalf("reloading identical bytes advertised %s, want %s", rr.ModelVersion, setA.Version())
	}
	for i, raw := range bodies {
		resp, body := postBytes(t, ts.URL+"/v1/scan", raw)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-drill scan: status %d (%s)", resp.StatusCode, body)
		}
		var sr scanResponse
		json.Unmarshal(body, &sr)
		if sr.ModelVersion != setA.Version() {
			t.Fatalf("post-drill scan version %s, want %s", sr.ModelVersion, setA.Version())
		}
		for j, want := range expected[setA.Version()][i] {
			if sr.Results[j].Score != want {
				t.Fatalf("body %d engine %d: reloaded score %v != original %v", i, j, sr.Results[j].Score, want)
			}
		}
	}

	v := pollTerminal(t, ts.URL+ar.Poll)
	if v.State != JobDone {
		t.Fatalf("attack job ended %s (%s), want done through the reloads", v.State, v.Error)
	}
}
