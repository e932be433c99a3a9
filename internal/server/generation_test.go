package server

import (
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"mpass/internal/detect"
	"mpass/internal/engine"
)

// These tests pin the serving tier's generation and fail-closed contracts
// at runtime: one model generation per response, a score cache keyed by
// (set version, content hash), and no verdict for a scan that failed.
// internal/mutants holds the code mutations each of them must catch.

// scanOK posts raw to /v1/scan, requires a 200, and decodes the response.
func scanOK(t *testing.T, url string, raw []byte) scanResponse {
	t.Helper()
	resp, body := postBytes(t, url+"/v1/scan", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scan: status %d (%s), want 200", resp.StatusCode, body)
	}
	var sr scanResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("decoding scan response: %v", err)
	}
	return sr
}

// swapEngine is a streaming fakeEngine that swaps the registry to next the
// first time it scores: a hot reload landing while a scan is in flight.
type swapEngine struct {
	fakeEngine
	reg  *engine.Registry
	next *engine.Set
	once sync.Once
}

func (e *swapEngine) swap() {
	e.once.Do(func() {
		if _, err := e.reg.Swap(e.next); err != nil {
			panic(err)
		}
	})
}

func (e *swapEngine) ScoreBatch(raws [][]byte) []float64 {
	e.swap()
	return e.fakeEngine.ScoreBatch(raws)
}

func (e *swapEngine) NewStream() detect.ScoreStream { return swapStream{e} }

type swapStream struct{ e *swapEngine }

func (s swapStream) Feed([]byte) {}

func (s swapStream) Finish() float64 {
	s.e.swap()
	return s.e.score
}

// TestScanReportsTheSetThatScored: the engine swaps the registry from inside
// its own scoring call, so the current generation changes between scoring
// and rendering. The response must still name the generation that scored it
// (version and engine names), on the buffered and on the streaming path, and
// the next scan must see the new generation.
func TestScanReportsTheSetThatScored(t *testing.T) {
	for _, tc := range []struct {
		name      string
		threshold int64 // StreamThreshold: -1 buffers, 1 streams any body
	}{{"buffered", -1}, {"streamed", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			eng := &swapEngine{fakeEngine: fakeEngine{name: "M", version: "vA", score: 0.25}}
			setA := engineSet(t, eng)
			setB := engineSet(t, &fakeEngine{name: "N", version: "vB", score: 0.75})
			s, ts := registryServer(t, Config{StreamThreshold: tc.threshold}, setA)
			eng.reg, eng.next = s.cfg.Registry, setB

			sr := scanOK(t, ts.URL, []byte("scored mid-reload"))
			if s.cfg.Registry.Current() != setB {
				t.Fatal("the engine did not swap the registry while scoring")
			}
			if sr.ModelVersion != setA.Version() || len(sr.Results) != 1 ||
				sr.Results[0].Model != "M" || sr.Results[0].Score != 0.25 {
				t.Fatalf("response %+v, want generation %s's engine M at 0.25", sr, setA.Version())
			}
			if got := s.metrics.ScansStreamed.Load(); (got == 1) != (tc.threshold > 0) {
				t.Fatalf("ScansStreamed = %d on the %s path", got, tc.name)
			}
			next := scanOK(t, ts.URL, []byte("after the reload"))
			if next.ModelVersion != setB.Version() || next.Results[0].Model != "N" {
				t.Fatalf("next scan %+v, want generation %s", next, setB.Version())
			}
		})
	}
}

// TestScanAfterSwapMissesOldGeneration swaps the registry directly, without
// the reload handler's cache purge. The cache key carries the set version,
// so the same bytes still miss, score under the new set and report its
// version, and then hit under it.
func TestScanAfterSwapMissesOldGeneration(t *testing.T) {
	setA := engineSet(t, &fakeEngine{name: "M", version: "vA", score: 0.25})
	setB := engineSet(t, &fakeEngine{name: "M", version: "vB", score: 0.75})
	s, ts := registryServer(t, Config{}, setA)
	raw := []byte("same bytes, two generations")

	scanOK(t, ts.URL, raw)
	if sr := scanOK(t, ts.URL, raw); !sr.Cached {
		t.Fatal("second scan of identical bytes missed the cache")
	}
	if _, err := s.cfg.Registry.Swap(setB); err != nil {
		t.Fatal(err)
	}
	sr := scanOK(t, ts.URL, raw)
	if sr.Cached || sr.ModelVersion != setB.Version() || sr.Results[0].Score != 0.75 {
		t.Fatalf("scan after swap = %+v, want a miss scored by %s at 0.75", sr, setB.Version())
	}
	if sr := scanOK(t, ts.URL, raw); !sr.Cached || sr.ModelVersion != setB.Version() {
		t.Fatalf("rescan after swap = %+v, want a hit under %s", sr, setB.Version())
	}
}

// stallEngine is a fakeEngine whose ScoreBatch blocks until release is
// closed: a wedged engine.
type stallEngine struct {
	fakeEngine
	release chan struct{}
}

func (e *stallEngine) ScoreBatch(raws [][]byte) []float64 {
	<-e.release
	return e.fakeEngine.ScoreBatch(raws)
}

// TestScanErrorFailsClosed: a scan whose scoring fails (the request deadline
// expires inside a wedged engine) answers 504 with no verdict and caches
// nothing, so once the engine recovers the same bytes score afresh.
func TestScanErrorFailsClosed(t *testing.T) {
	eng := &stallEngine{fakeEngine: fakeEngine{name: "M", version: "vA", score: 0.75}, release: make(chan struct{})}
	s, ts := registryServer(t, Config{RequestTimeout: 50 * time.Millisecond}, engineSet(t, eng))
	release := sync.OnceFunc(func() { close(eng.release) })
	t.Cleanup(release) // runs before the server's drain

	raw := []byte("scored while the engine is wedged")
	resp, body := postBytes(t, ts.URL+"/v1/scan", raw)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("scan into a wedged engine: status %d (%s), want 504", resp.StatusCode, body)
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("decoding error document: %v (%s)", err, body)
	}
	if _, ok := doc["results"]; ok || doc["error"] == nil {
		t.Fatalf("failed scan answered %s, want an error document with no results", body)
	}
	if n := s.cache.len(); n != 0 {
		t.Fatalf("failed scan left %d cache entries", n)
	}
	if got := s.metrics.ScanErrors.Load(); got != 1 {
		t.Fatalf("ScanErrors = %d, want 1", got)
	}

	release()
	sr := scanOK(t, ts.URL, raw)
	if sr.Cached || len(sr.Results) != 1 || sr.Results[0].Score != 0.75 || !sr.Malicious {
		t.Fatalf("scan after recovery = %+v, want a fresh malicious verdict at 0.75", sr)
	}
}
