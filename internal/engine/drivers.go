package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"

	"mpass/internal/detect"
)

// Driver implementations for every model family in the repo. The conv and
// tree drivers embed their detect counterparts, so the full capability
// surface (BatchScorer, Thresholder, Streamer, GradientModel) promotes
// through and the probes find it without unwrapping; versions are
// content digests of the serialized weights, computed once at construction.

// payloadDigest is the content-addressed engine version: a digest of the
// serialized weight payload, so identical bytes always mean identical
// version — the property the reload drill's bit-identity assertion keys on.
func payloadDigest(payload []byte) string {
	sum := sha256.Sum256(payload)
	return "sha256:" + hex.EncodeToString(sum[:8])
}

// encodePayload gobs a detector into the envelope payload form.
func encodePayload(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ConvDriver plugs a gated-conv detector (MalConv, NonNeg, MalGCG) into the
// registry. Streaming and gradients promote from the embedded detector.
type ConvDriver struct {
	*detect.ConvDetector
	version string
}

// NewConvDriver wraps d, deriving the version from its serialized weights.
func NewConvDriver(d *detect.ConvDetector) (*ConvDriver, error) {
	if d == nil || d.Net == nil {
		return nil, fmt.Errorf("engine: nil conv detector")
	}
	payload, err := encodePayload(d)
	if err != nil {
		return nil, fmt.Errorf("engine: serializing %s: %w", d.Name(), err)
	}
	return &ConvDriver{ConvDetector: d, version: payloadDigest(payload)}, nil
}

// Threshold implements Driver (shadowing the embedded threshold field).
func (d *ConvDriver) Threshold() float64 { return d.ConvDetector.Threshold }

// Version implements Driver.
func (d *ConvDriver) Version() string { return d.version }

// Health implements Driver.
func (d *ConvDriver) Health() error {
	if d.ConvDetector == nil || d.ConvDetector.Net == nil {
		return fmt.Errorf("engine: conv driver has no network")
	}
	return nil
}

// Unwrap implements Unwrapper.
func (d *ConvDriver) Unwrap() detect.Detector { return d.ConvDetector }

// GBDTDriver plugs the boosted-tree detector into the registry. It streams
// (feature extraction is incremental) but is not differentiable, so the
// gradient probe correctly excludes it from known-model ensembles.
type GBDTDriver struct {
	*detect.GBDTDetector
	version string
}

// NewGBDTDriver wraps d, deriving the version from its serialized weights.
func NewGBDTDriver(d *detect.GBDTDetector) (*GBDTDriver, error) {
	if d == nil || d.Ensemble == nil {
		return nil, fmt.Errorf("engine: nil gbdt detector")
	}
	payload, err := encodePayload(d)
	if err != nil {
		return nil, fmt.Errorf("engine: serializing %s: %w", d.Name(), err)
	}
	return &GBDTDriver{GBDTDetector: d, version: payloadDigest(payload)}, nil
}

// Threshold implements Driver (shadowing the embedded threshold field).
func (d *GBDTDriver) Threshold() float64 { return d.GBDTDetector.Threshold }

// Version implements Driver.
func (d *GBDTDriver) Version() string { return d.version }

// Health implements Driver.
func (d *GBDTDriver) Health() error {
	if d.GBDTDetector == nil || d.GBDTDetector.Ensemble == nil {
		return fmt.Errorf("engine: gbdt driver has no ensemble")
	}
	return nil
}

// Unwrap implements Unwrapper.
func (d *GBDTDriver) Unwrap() detect.Detector { return d.GBDTDetector }

// detectorDriver adapts any detect.Detector into a Driver — the
// compatibility wrapper for detectors that predate the driver layer (test
// stubs, external models).
type detectorDriver struct {
	detect.Detector
	version string
}

// WrapDetector adapts d into a Driver under the given version label (empty
// derives a stable "wrapped-<name>" tag). Capabilities of the underlying
// detector stay discoverable through the probes via Unwrap.
func WrapDetector(d detect.Detector, version string) (Driver, error) {
	if d == nil {
		return nil, fmt.Errorf("engine: nil detector")
	}
	if version == "" {
		version = "wrapped-" + d.Name()
	}
	return &detectorDriver{Detector: d, version: version}, nil
}

// ScoreBatch implements Driver through the detect batched-or-parallel path.
func (d *detectorDriver) ScoreBatch(raws [][]byte) []float64 {
	return detect.ScoreAll(d.Detector, raws, 0)
}

// Threshold implements Driver: the detector's own decision threshold when it
// has one, else the conventional 0.5.
func (d *detectorDriver) Threshold() float64 {
	if th, ok := d.Detector.(detect.Thresholder); ok {
		return th.DecisionThreshold()
	}
	return 0.5
}

// Version implements Driver.
func (d *detectorDriver) Version() string { return d.version }

// Health implements Driver.
func (d *detectorDriver) Health() error { return nil }

// Unwrap implements Unwrapper.
func (d *detectorDriver) Unwrap() detect.Detector { return d.Detector }

// FromSuite wraps the trained offline suite into a driver Set, preserving
// the paper's §IV-A order: the bridge from a freshly trained suite to the
// per-engine world.
func FromSuite(s *detect.Suite) (*Set, error) {
	if s == nil {
		return nil, fmt.Errorf("engine: nil suite")
	}
	malconv, err := NewConvDriver(s.MalConv)
	if err != nil {
		return nil, err
	}
	nonneg, err := NewConvDriver(s.NonNeg)
	if err != nil {
		return nil, err
	}
	lgbm, err := NewGBDTDriver(s.LGBM)
	if err != nil {
		return nil, err
	}
	malgcg, err := NewConvDriver(s.MalGCG)
	if err != nil {
		return nil, err
	}
	return NewSet(malconv, nonneg, lgbm, malgcg)
}
