// Streaming scoring: every offline detector can consume a sample as a
// sequence of chunks and produce the exact score Score would give the
// whole byte slice, in memory bounded by the chunk size (plus, for the
// feature-based model, the constant structural prefix cap). This is the
// O(chunk) path internal/server uses for uploads too large to buffer.
package detect

import (
	"mpass/internal/features"
	"mpass/internal/gbdt"
)

// ScoreStream scores one sample incrementally. Feed the sample's bytes in
// order, then call Finish exactly once; the result equals Score over the
// concatenation of the chunks, bit for bit. A stream is single-use and not
// safe for concurrent Feeds.
type ScoreStream interface {
	Feed(p []byte)
	Finish() float64
}

// Streamer is implemented by detectors that provide a streaming scorer.
// All four offline models do.
type Streamer interface {
	NewStream() ScoreStream
}

// NewStream implements Streamer. The network's streaming pass fills the
// same pooled window buffer Predict uses (SeqLen truncation means windows
// never span chunks), so the cycle is allocation free in steady state.
func (d *ConvDetector) NewStream() ScoreStream { return d.Net.NewStream() }

// gbdtStream accumulates EMBER-style features incrementally and runs the
// tree walk once at Finish.
type gbdtStream struct {
	ex *features.StreamExtractor
	e  *gbdt.Ensemble
}

func (s *gbdtStream) Feed(p []byte)   { s.ex.Feed(p) }
func (s *gbdtStream) Finish() float64 { return s.e.Predict(s.ex.Finish()) }

// NewStream implements Streamer. Scores equal the buffered path exactly
// for samples within features.DefaultStructuralCap; beyond it the
// structural features degrade to zero (features.StreamExtractor documents
// the bound) while every byte-level family stays exact.
func (d *GBDTDetector) NewStream() ScoreStream {
	return &gbdtStream{ex: features.NewStreamExtractor(), e: d.Ensemble}
}
