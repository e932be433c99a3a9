// POST /v1/models/reload — zero-downtime model hot-reload. The handler asks
// the configured loader for a candidate engine set, certifies it (every
// engine healthy, every probe score finite, quantized tables within their
// certified tolerance of the float path), and only then swaps it into the
// registry — the one cell every request path reads. In-flight requests
// finish on the old generation, new requests see the new one, and the score
// cache is purged so no stale-generation score survives the swap. A
// candidate that fails certification is rejected with 422 and the old
// generation keeps serving — a bad model file can never take the scanner
// down.
package server

import (
	"fmt"
	"math"
	"net/http"

	"mpass/internal/corpus"
	"mpass/internal/engine"
	"mpass/internal/nn"
)

// reloadResponse is the POST /v1/models/reload response document.
type reloadResponse struct {
	Swapped         bool           `json:"swapped"`
	PreviousVersion string         `json:"previous_version"`
	ModelVersion    string         `json:"model_version"`
	Engines         []EngineHealth `json:"engines"`
	ProbeSamples    int            `json:"probe_samples"`
	CachePurged     int            `json:"cache_purged"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if s.cfg.Reload == nil {
		writeError(w, http.StatusNotImplemented, "reload disabled (no loader configured)")
		return
	}
	// Reloads serialize: concurrent swaps would race certification against
	// the generation they certify. Scans and attacks never take this lock.
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()

	next, err := s.cfg.Reload(r.URL.Query().Get("path"))
	if err == nil && next == nil {
		err = fmt.Errorf("loader returned no set")
	}
	if err != nil {
		s.metrics.ReloadFailures.Add(1)
		writeError(w, http.StatusUnprocessableEntity, "loading model set: "+err.Error())
		return
	}
	// Incoming engines serve in the configured fixed-point mode; apply it
	// before certification so the parity gate checks exactly what will serve.
	next.SetQuantMode(s.cfg.Quant)
	if err := s.certify(next); err != nil {
		s.metrics.ReloadFailures.Add(1)
		writeError(w, http.StatusUnprocessableEntity, "certification failed: "+err.Error())
		return
	}

	prev, err := s.registry.Swap(next)
	if err != nil {
		s.metrics.ReloadFailures.Add(1)
		writeError(w, http.StatusInternalServerError, "swapping model set: "+err.Error())
		return
	}
	purged := s.cache.purge()
	s.metrics.CachePurged.Add(int64(purged))
	s.metrics.Reloads.Add(1)
	writeJSON(w, http.StatusOK, reloadResponse{
		Swapped:         true,
		PreviousVersion: prev.Version(),
		ModelVersion:    next.Version(),
		Engines:         engineHealth(next),
		ProbeSamples:    len(s.probes),
		CachePurged:     purged,
	})
}

// certify gates a swap on the candidate set: every engine must report
// healthy, score every probe sample to a finite value, and — when a
// fixed-point table mode is serving — stay within the mode's certified
// tolerance of its own float path with no label flips across the engine's
// threshold. The old generation keeps serving while this runs.
func (s *Server) certify(next *engine.Set) error {
	for _, d := range next.Drivers() {
		if err := d.Health(); err != nil {
			return fmt.Errorf("engine %s: %w", d.Name(), err)
		}
	}
	if len(s.probes) == 0 {
		return nil
	}
	for _, d := range next.Drivers() {
		scores := d.ScoreBatch(s.probes)
		if len(scores) != len(s.probes) {
			return fmt.Errorf("engine %s: %d scores for %d probes", d.Name(), len(scores), len(s.probes))
		}
		for i, sc := range scores {
			if math.IsNaN(sc) || math.IsInf(sc, 0) {
				return fmt.Errorf("engine %s: non-finite score %v on probe %d", d.Name(), sc, i)
			}
		}
		if s.cfg.Quant == nn.QuantOff {
			continue
		}
		q, ok := engine.QuantizerOf(d)
		if !ok {
			continue
		}
		// Quant-mode parity: the quantized scores just computed against the
		// float reference, restoring the serving mode afterwards.
		q.SetQuantMode(nn.QuantOff)
		ref := d.ScoreBatch(s.probes)
		q.SetQuantMode(s.cfg.Quant)
		const tol = 1e-6
		thr := d.Threshold()
		for i := range ref {
			if diff := math.Abs(scores[i] - ref[i]); diff > tol {
				return fmt.Errorf("engine %s: %v deviates %.3g from the float path on probe %d (tolerance %.0g)",
					d.Name(), s.cfg.Quant, diff, i, tol)
			}
			if (scores[i] >= thr) != (ref[i] >= thr) {
				return fmt.Errorf("engine %s: %v flips the label on probe %d", d.Name(), s.cfg.Quant, i)
			}
		}
	}
	return nil
}

// defaultProbeCorpus synthesizes the certification corpus when the embedder
// does not supply one: a deterministic handful of benign and malicious
// samples from the synthetic generator, enough to catch NaN weights and
// broken quant tables without making reloads slow.
func defaultProbeCorpus() [][]byte {
	g := corpus.NewGenerator(4242)
	probes := make([][]byte, 0, 8)
	for i := 0; i < 4; i++ {
		probes = append(probes, g.Sample(corpus.Benign).Raw, g.Sample(corpus.Malware).Raw)
	}
	return probes
}
