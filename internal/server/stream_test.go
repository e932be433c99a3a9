package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"testing"

	"mpass/internal/detect"
)

// streamServer builds a server on real ConvDetectors (which implement the
// streaming scorer) with a tiny streaming threshold so small test bodies
// take the O(chunk) path.
func streamServer(t *testing.T, cfg Config) (*Server, string, []detect.Detector) {
	t.Helper()
	dets := []detect.Detector{
		convDetector(t, "A", 1),
		convDetector(t, "B", 2),
	}
	cfg.Registry = stubRegistry(t, dets...)
	s, ts := newTestServer(t, cfg)
	return s, ts.URL, dets
}

// TestScanStreamMatchesBuffered is the serving-layer streaming parity gate:
// a body routed through the chunked path must answer with exactly the
// scores, labels, and SHA-256 the buffered pipeline computes, and the
// result must land in the shared score cache.
func TestScanStreamMatchesBuffered(t *testing.T) {
	s, url, dets := streamServer(t, Config{StreamThreshold: 64, StreamChunk: 128})

	raw := make([]byte, 4096)
	rand.New(rand.NewSource(9)).Read(raw)

	resp, body := postBytes(t, url+"/v1/scan", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scan status %d: %s", resp.StatusCode, body)
	}
	var sr scanResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("decoding scan response: %v", err)
	}
	sum := sha256.Sum256(raw)
	if sr.SHA256 != hex.EncodeToString(sum[:]) {
		t.Fatalf("sha256 = %s, want %s", sr.SHA256, hex.EncodeToString(sum[:]))
	}
	if sr.Size != len(raw) {
		t.Fatalf("size = %d, want %d", sr.Size, len(raw))
	}
	if len(sr.Results) != len(dets) {
		t.Fatalf("results for %d models, want %d", len(sr.Results), len(dets))
	}
	for i, d := range dets {
		want := d.Score(raw)
		if got := sr.Results[i].Score; got != want {
			t.Fatalf("%s: streamed score %v != buffered %v", d.Name(), got, want)
		}
		if sr.Results[i].Malicious != d.Label(raw) {
			t.Fatalf("%s: streamed label %v != buffered %v", d.Name(), sr.Results[i].Malicious, d.Label(raw))
		}
	}
	if got := s.metrics.ScansStreamed.Load(); got != 1 {
		t.Fatalf("ScansStreamed = %d, want 1", got)
	}
	if got := s.metrics.StreamedBytes.Load(); got != int64(len(raw)) {
		t.Fatalf("StreamedBytes = %d, want %d", got, len(raw))
	}
	// The streamed result is visible to the buffered pipeline's cache,
	// filed under the generation that streamed it.
	out, ok := s.cache.get(scoreKey{version: s.snap().Version(), sum: sum})
	if !ok {
		t.Fatal("streamed scan result not cached")
	}
	for i, d := range dets {
		if out.Scores[i] != d.Score(raw) {
			t.Fatalf("%s: cached score %v != %v", d.Name(), out.Scores[i], d.Score(raw))
		}
	}
}

// unsizedReader hides its concrete type so http.NewRequest cannot derive a
// ContentLength — the request goes out chunked, length unknown.
type unsizedReader struct{ io.Reader }

func postChunked(t *testing.T, url string, body io.Reader) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, unsizedReader{body})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

// TestScanStreamUnknownLength: chunked uploads (ContentLength -1) must take
// the streaming path regardless of size, and score identically.
func TestScanStreamUnknownLength(t *testing.T) {
	s, url, dets := streamServer(t, Config{})

	raw := make([]byte, 300)
	rand.New(rand.NewSource(10)).Read(raw)
	resp, body := postChunked(t, url+"/v1/scan", readerOf(raw))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scan status %d: %s", resp.StatusCode, body)
	}
	var sr scanResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if got, want := sr.Results[0].Score, dets[0].Score(raw); got != want {
		t.Fatalf("chunked streamed score %v != %v", got, want)
	}
	if got := s.metrics.ScansStreamed.Load(); got != 1 {
		t.Fatalf("ScansStreamed = %d, want 1", got)
	}

	// A chunked empty body is still a 400, like the buffered path, and
	// like it never reaches the request ledger.
	resp, _ = postChunked(t, url+"/v1/scan", readerOf(nil))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty chunked body: status %d, want 400", resp.StatusCode)
	}
	if got := s.metrics.ScanRequests.Load(); got != 1 {
		t.Fatalf("scan_requests = %d after one scan and one 400, want 1", got)
	}
}

func readerOf(b []byte) io.Reader { return &sliceReader{rest: b} }

type sliceReader struct{ rest []byte }

func (r *sliceReader) Read(p []byte) (int, error) {
	if len(r.rest) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.rest)
	r.rest = r.rest[n:]
	return n, nil
}

// TestScanStreamTooLarge: MaxStreamBytes caps the chunked path with 413,
// and the reject is not counted as a scan request.
func TestScanStreamTooLarge(t *testing.T) {
	s, url, _ := streamServer(t, Config{StreamThreshold: 64, MaxStreamBytes: 4096})
	raw := make([]byte, 8192)
	resp, body := postBytes(t, url+"/v1/scan", raw)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%s), want 413", resp.StatusCode, body)
	}
	if got := s.metrics.ScanRequests.Load(); got != 0 {
		t.Fatalf("scan_requests = %d after a 413, want 0", got)
	}
}

// TestStreamRequiresStreamers: with detectors that cannot stream (the
// stubs), every scan — even one above the threshold — takes the buffered
// pipeline.
func TestStreamRequiresStreamers(t *testing.T) {
	s, ts := newTestServer(t, Config{StreamThreshold: 16})
	raw := make([]byte, 1024)
	resp, body := postBytes(t, ts.URL+"/v1/scan", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scan status %d: %s", resp.StatusCode, body)
	}
	if got := s.metrics.ScansStreamed.Load(); got != 0 {
		t.Fatalf("ScansStreamed = %d, want 0 without streaming detectors", got)
	}
}

// patternReader serves length bytes of a fixed pattern without ever
// holding them — the client side of the O(chunk) memory check.
type patternReader struct{ remaining int64 }

func (r *patternReader) Read(p []byte) (int, error) {
	if r.remaining <= 0 {
		return 0, io.EOF
	}
	n := len(p)
	if int64(n) > r.remaining {
		n = int(r.remaining)
	}
	for i := 0; i < n; i++ {
		p[i] = byte(i * 131)
	}
	r.remaining -= int64(n)
	return n, nil
}

// TestScanStreamBoundedMemory is the O(chunk) gate: streaming a body far
// larger than the buffered cap must allocate far less than the body size.
// TotalAlloc is monotonic, so the measurement is GC-safe; the generous
// bound leaves room for HTTP plumbing while still ruling out any path that
// buffers the upload.
func TestScanStreamBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 16 MiB")
	}
	_, url, _ := streamServer(t, Config{
		StreamThreshold: 64,
		StreamChunk:     64 << 10,
		MaxStreamBytes:  64 << 20,
		MaxBodyBytes:    1 << 20, // buffered path would refuse this body
	})
	const bodyLen = 16 << 20

	post := func() {
		resp, body := postChunked(t, url+"/v1/scan", &patternReader{remaining: bodyLen})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scan status %d: %s", resp.StatusCode, body)
		}
	}
	post() // warm pools, transport, and table caches

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	post()
	runtime.ReadMemStats(&after)
	alloced := int64(after.TotalAlloc - before.TotalAlloc)
	if alloced > bodyLen/4 {
		t.Fatalf("streaming a %d-byte body allocated %d bytes, want < %d",
			int64(bodyLen), alloced, int64(bodyLen/4))
	}
}
