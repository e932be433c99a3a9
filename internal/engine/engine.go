// Package engine is the pluggable detector-driver layer: every resident
// model — the gated-conv networks, the boosted-tree ensemble, and any
// wrapped detect.Detector — sits behind one Driver interface
// (score, batch-score, threshold, health, version), and a Registry holds the
// active Set behind an atomic pointer so a freshly loaded model set swaps in
// under live traffic without a restart.
//
// The interface is deliberately the intersection every engine can honor;
// richer capabilities (streaming scoring, embedding-space gradients,
// fixed-point table modes) are optional and discovered through the
// capability probes (StreamerOf, GradientOf, QuantizerOf), which look
// through wrapper drivers via Unwrapper. The serving layer never type-checks
// concrete models again: a new engine plugs into the batcher, the score
// cache, persistence, and the attack oracle by implementing Driver and —
// when it wants a seat in persistence — an envelope kind (persist.go).
package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync/atomic"

	"mpass/internal/detect"
	"mpass/internal/nn"
)

// Driver is one named detector engine. It extends detect.Detector (Name,
// Score, Label) with the serving-layer contract: a batched scorer, the
// decision threshold its hard label derives from, a self-reported health
// check, and a content-addressed version identifying the exact weights.
//
// ScoreBatch must return scores bit-identical to per-sample Score calls, in
// input order — the repo-wide batch-equals-single parity guarantee the
// micro-batching dispatcher relies on.
type Driver interface {
	detect.Detector
	ScoreBatch(raws [][]byte) []float64
	Threshold() float64
	// Version identifies the engine's exact weight set. Persisted engines
	// use a digest of the serialized payload ("sha256:..."), so two loads of
	// the same bytes always advertise the same version.
	Version() string
	// Health returns nil when the engine can answer queries. It runs on
	// every /healthz request and during reload certification, so it must be
	// cheap and must not score.
	Health() error
}

// Unwrapper is implemented by wrapper drivers; the capability probes look
// through it to the underlying detector.
type Unwrapper interface {
	Unwrap() detect.Detector
}

// Quantizer is the fixed-point capability: engines whose inference tables
// can switch between float64 and int32 modes (the gated-conv family).
type Quantizer interface {
	SetQuantMode(m nn.QuantMode)
}

// StreamerOf probes d for the streaming-scorer capability, looking through
// wrappers. Engines with it serve the O(chunk) scan path.
func StreamerOf(d Driver) (detect.Streamer, bool) {
	if st, ok := d.(detect.Streamer); ok {
		return st, true
	}
	if u, ok := d.(Unwrapper); ok {
		if st, ok := u.Unwrap().(detect.Streamer); ok {
			return st, true
		}
	}
	return nil, false
}

// GradientOf probes d for the differentiable-score capability, looking
// through wrappers. Engines with it can join the MPass known-model ensemble;
// hard-label-only engines (trees) never can — the paper's footnote 6
// exclusion falls out of the probe instead of a hardcoded list.
func GradientOf(d Driver) (detect.GradientModel, bool) {
	if g, ok := d.(detect.GradientModel); ok {
		return g, true
	}
	if u, ok := d.(Unwrapper); ok {
		if g, ok := u.Unwrap().(detect.GradientModel); ok {
			return g, true
		}
	}
	return nil, false
}

// QuantizerOf probes d for the fixed-point table capability, looking through
// wrappers.
func QuantizerOf(d Driver) (Quantizer, bool) {
	if q, ok := d.(Quantizer); ok {
		return q, true
	}
	if u, ok := d.(Unwrapper); ok {
		if q, ok := u.Unwrap().(Quantizer); ok {
			return q, true
		}
	}
	return nil, false
}

// GradientModels is MPass's known-model ensemble for an attack on the named
// target: every gradient-capable member of the set except the target, in
// set order. The gradient probe rejects trees, so LightGBM is never a known
// model (paper footnote 6); an external target knows all three conv nets.
func GradientModels(s *Set, excludeTarget string) []detect.GradientModel {
	if s == nil {
		return nil
	}
	var out []detect.GradientModel
	for _, d := range s.drivers {
		if d.Name() == excludeTarget {
			continue
		}
		if g, ok := GradientOf(d); ok {
			out = append(out, g)
		}
	}
	return out
}

// Set is an immutable ordered collection of drivers — one resident model
// generation. Scan responses list engines in set order; the set version is a
// digest over the member names and versions, so any membership or weight
// change produces a new version.
type Set struct {
	drivers []Driver
	names   []string
	byName  map[string]int
	version string
}

// NewSet validates the drivers (non-empty, unique non-empty names) and
// freezes them into a Set.
func NewSet(drivers ...Driver) (*Set, error) {
	if len(drivers) == 0 {
		return nil, fmt.Errorf("engine: empty driver set")
	}
	s := &Set{
		drivers: append([]Driver(nil), drivers...),
		names:   make([]string, len(drivers)),
		byName:  make(map[string]int, len(drivers)),
	}
	h := sha256.New()
	for i, d := range s.drivers {
		if d == nil {
			return nil, fmt.Errorf("engine: nil driver at index %d", i)
		}
		name := d.Name()
		if name == "" {
			return nil, fmt.Errorf("engine: driver at index %d has an empty name", i)
		}
		if _, dup := s.byName[name]; dup {
			return nil, fmt.Errorf("engine: duplicate driver name %q", name)
		}
		s.names[i] = name
		s.byName[name] = i
		h.Write([]byte(name))
		h.Write([]byte{0})
		h.Write([]byte(d.Version()))
		h.Write([]byte{0})
	}
	s.version = "set-" + hex.EncodeToString(h.Sum(nil)[:8])
	return s, nil
}

// Len reports the member count.
func (s *Set) Len() int { return len(s.drivers) }

// Drivers returns the members in set order. The slice is shared and
// read-only.
func (s *Set) Drivers() []Driver { return s.drivers }

// Names returns the member names in set order. The slice is shared and
// read-only.
func (s *Set) Names() []string { return s.names }

// Get resolves a member by name.
func (s *Set) Get(name string) (Driver, bool) {
	i, ok := s.byName[name]
	if !ok {
		return nil, false
	}
	return s.drivers[i], true
}

// Index resolves a member's position in set order.
func (s *Set) Index(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// Version identifies this exact model generation.
func (s *Set) Version() string { return s.version }

// SetQuantMode switches every member with the fixed-point capability to the
// given table format (nn.QuantOff restores the float64 path); others ignore it.
func (s *Set) SetQuantMode(m nn.QuantMode) {
	for _, d := range s.drivers {
		if q, ok := QuantizerOf(d); ok {
			q.SetQuantMode(m)
		}
	}
}

// Registry holds the active Set behind an atomic pointer: readers (every
// scan, every oracle query) and Swap never lock. A reader that loads the
// pointer holds a consistent generation for as long as it keeps the *Set —
// in-flight work finishes on the old generation while new work sees the new
// one.
type Registry struct {
	cur atomic.Pointer[Set]
}

// NewRegistry starts a registry serving the initial set.
func NewRegistry(initial *Set) (*Registry, error) {
	if initial == nil {
		return nil, fmt.Errorf("engine: registry needs an initial set")
	}
	r := &Registry{}
	r.cur.Store(initial)
	return r, nil
}

// Current returns the active set. Never nil.
func (r *Registry) Current() *Set { return r.cur.Load() }

// Swap atomically replaces the active set and returns the previous one.
// Concurrent swaps each get a distinct previous set: every generation is
// returned by exactly one Swap or is still current.
func (r *Registry) Swap(next *Set) (*Set, error) {
	if next == nil {
		return nil, fmt.Errorf("engine: cannot swap in a nil set")
	}
	return r.cur.Swap(next), nil
}
