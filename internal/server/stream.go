// Streaming scan path: uploads too large (or of unknown length) for the
// buffered batcher pipeline feed every detector's incremental scorer chunk
// by chunk, so a multi-gigabyte POST /v1/scan peaks at O(StreamChunk)
// memory per request instead of O(body). Scores are bit-identical to the
// buffered path — detect's streaming equivalence gate certifies that — so
// the two pipelines share the SHA-256 score cache: a streamed result
// satisfies later buffered scans of the same content and vice versa.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"mpass/internal/detect"
	"mpass/internal/engine"
	"mpass/internal/tenant"
)

// streamEligible routes a scan to the streaming pipeline and returns ms's
// streaming scorers, or nil for the buffered one. Streaming must be on, the
// declared body length must exceed the threshold or be unknown (chunked
// transfer encoding reports -1), and every member of ms must stream; the
// members are probed only once the first two hold, so small bodies pay
// nothing.
func (s *Server) streamEligible(r *http.Request, ms *engine.Set) []detect.Streamer {
	if s.cfg.StreamThreshold < 0 {
		return nil
	}
	if r.ContentLength >= 0 && r.ContentLength <= s.cfg.StreamThreshold {
		return nil
	}
	return streamers(ms)
}

// handleScanStream scores one upload through sts, the streaming scorers of
// ms — the snapshot its caller routed on, held for the whole request so a
// reload mid-upload cannot mix generations. The body is read once in
// StreamChunk-sized pieces, each fanned to the SHA-256 hasher and every
// detector's stream; nothing retains the chunk, so peak memory is the chunk
// buffer plus the detectors' pooled scratch.
func (s *Server) handleScanStream(w http.ResponseWriter, r *http.Request, ms *engine.Set, sts []detect.Streamer, grant *tenant.Grant) {
	start := time.Now()

	streams := make([]detect.ScoreStream, len(sts))
	for i, st := range sts {
		streams[i] = st.NewStream()
	}
	// finish closes every stream exactly once — also on error paths, so
	// pooled scratch buffers always return to their pools.
	finished := false
	finish := func() []float64 {
		finished = true
		scores := make([]float64, len(streams))
		for i, st := range streams {
			scores[i] = st.Finish()
		}
		return scores
	}
	defer func() {
		if !finished {
			finish()
		}
	}()

	hasher := sha256.New()
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxStreamBytes)
	buf := make([]byte, s.cfg.StreamChunk)
	var total int64
	for {
		n, err := body.Read(buf)
		if n > 0 {
			total += int64(n)
			hasher.Write(buf[:n])
			for _, st := range streams {
				st.Feed(buf[:n])
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("body exceeds %d bytes", tooBig.Limit))
			} else {
				writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
			}
			return
		}
	}
	if total == 0 {
		writeError(w, http.StatusBadRequest, "empty body; POST the PE bytes")
		return
	}
	// Counted only now, as on the buffered path: 400/413 rejects appear in
	// neither ledger.
	s.metrics.ScanRequests.Add(1)
	if grant != nil {
		grant.CountScan()
	}

	scores := finish()
	out := scanOut{Scores: scores, Labels: make([]bool, len(scores)), set: ms}
	for i, d := range ms.Drivers() {
		out.Labels[i] = scores[i] >= d.Threshold()
	}
	var sum [32]byte
	hasher.Sum(sum[:0])
	s.cache.put(scoreKey{version: ms.Version(), sum: sum}, out)

	s.metrics.ScansStreamed.Add(1)
	s.metrics.StreamedBytes.Add(total)
	elapsed := time.Since(start)
	s.metrics.ScanLatency.Observe(elapsed)
	if grant != nil {
		grant.ObserveScanLatency(elapsed)
	}

	resp := scanResponse{
		SHA256:       hex.EncodeToString(sum[:]),
		Size:         int(total),
		ModelVersion: ms.Version(),
	}
	for i, name := range ms.Names() {
		resp.Results = append(resp.Results, scanModelResult{
			Model: name, Score: out.Scores[i], Malicious: out.Labels[i],
		})
		resp.Malicious = resp.Malicious || out.Labels[i]
	}
	writeJSON(w, http.StatusOK, resp)
}
