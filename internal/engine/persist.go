// Per-engine persistence: each driver serializes into its own versioned gob
// envelope — magic, format version, engine kind, name, suite order, and the
// weight payload. Files are written atomically (temp + rename), and a
// directory of envelopes round-trips as a Set. The envelope digest doubles as
// the engine version, so a load always advertises exactly what is on disk.
// Decoding ends with every ConvNet's weight version bumped, so the
// lookup-table fast paths (and any fixed-point tables, which are never
// persisted) rebuild from the loaded weights.
package engine

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mpass/internal/detect"
)

// envelope is the on-disk per-engine form.
type envelope struct {
	Magic   string
	Version int    // envelope format version
	Kind    string // payload decoder selector: "conv", "gbdt", "rnn"
	Name    string // engine name (duplicated out of the payload for listings)
	Index   int    // position in suite order, so a directory load is ordered
	Payload []byte // gob of the underlying detector
}

const (
	engineMagic   = "mpass-engine"
	engineVersion = 1
	// envelopeSuffix names engine files inside a model directory.
	envelopeSuffix = ".engine.gob"
)

// engineKind maps a driver to its envelope kind; drivers without one (AV
// simulators, wrapped externals) are runtime-only and cannot be saved.
func engineKind(d Driver) (kind string, payload any, err error) {
	switch t := d.(type) {
	case *ConvDriver:
		return "conv", t.ConvDetector, nil
	case *GBDTDriver:
		return "gbdt", t.GBDTDetector, nil
	case *RNNDriver:
		return "rnn", t.RNNDetector, nil
	default:
		return "", nil, fmt.Errorf("engine: %s (%T) is runtime-only and has no envelope form", d.Name(), d)
	}
}

// SaveEngine writes one driver's envelope to w.
func SaveEngine(w io.Writer, d Driver, index int) error {
	kind, payload, err := engineKind(d)
	if err != nil {
		return err
	}
	raw, err := encodePayload(payload)
	if err != nil {
		return fmt.Errorf("engine: serializing %s: %w", d.Name(), err)
	}
	return gob.NewEncoder(w).Encode(&envelope{
		Magic:   engineMagic,
		Version: engineVersion,
		Kind:    kind,
		Name:    d.Name(),
		Index:   index,
		Payload: raw,
	})
}

// LoadEngine reads one envelope and rebuilds its driver. The driver's
// version is the payload digest, so saving and reloading identical bytes
// yields an identical version.
func LoadEngine(r io.Reader) (Driver, int, error) {
	var env envelope
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return nil, 0, fmt.Errorf("engine: load envelope: %w", err)
	}
	if env.Magic != engineMagic {
		return nil, 0, fmt.Errorf("engine: not an engine file (magic %q)", env.Magic)
	}
	if env.Version != engineVersion {
		return nil, 0, fmt.Errorf("engine: envelope version %d, this build reads %d", env.Version, engineVersion)
	}
	d, err := decodeEngine(env)
	if err != nil {
		return nil, 0, err
	}
	if d.Name() != env.Name {
		return nil, 0, fmt.Errorf("engine: envelope named %q but payload decodes to %q", env.Name, d.Name())
	}
	return d, env.Index, nil
}

// decodeEngine rebuilds the typed driver from an envelope payload.
func decodeEngine(env envelope) (Driver, error) {
	switch env.Kind {
	case "conv":
		var det detect.ConvDetector
		if err := decodePayload(env.Payload, &det); err != nil {
			return nil, fmt.Errorf("engine: conv payload %q: %w", env.Name, err)
		}
		return NewConvDriver(&det)
	case "gbdt":
		var det detect.GBDTDetector
		if err := decodePayload(env.Payload, &det); err != nil {
			return nil, fmt.Errorf("engine: gbdt payload %q: %w", env.Name, err)
		}
		return NewGBDTDriver(&det)
	case "rnn":
		var det RNNDetector
		if err := decodePayload(env.Payload, &det); err != nil {
			return nil, fmt.Errorf("engine: rnn payload %q: %w", env.Name, err)
		}
		return NewRNNDriver(&det)
	default:
		return nil, fmt.Errorf("engine: unknown engine kind %q (envelope %q)", env.Kind, env.Name)
	}
}

func decodePayload(raw []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(raw)).Decode(v)
}

// SaveEngineFile writes one driver's envelope atomically: temp file in the
// destination directory, then rename, so a crash mid-write never leaves a
// torn engine for the next load.
func SaveEngineFile(path string, d Driver, index int) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".engine-*.gob")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := SaveEngine(tmp, d, index); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadEngineFile reads one envelope written by SaveEngineFile.
func LoadEngineFile(path string) (Driver, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return LoadEngine(f)
}

// envelopeFileName names an engine's file inside a model directory; the
// index prefix keeps directory listings in suite order.
func envelopeFileName(index int, name string) string {
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
	return fmt.Sprintf("%02d-%s%s", index, clean, envelopeSuffix)
}

// SaveDir writes every persistable member of the set into dir (created if
// missing), one envelope file per engine, each atomically. Runtime-only
// members (AV drivers, wrapped detectors) are an error: a directory must
// round-trip to the set that wrote it.
func SaveDir(dir string, s *Set) error {
	if s == nil || s.Len() == 0 {
		return fmt.Errorf("engine: empty set")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, d := range s.drivers {
		if err := SaveEngineFile(filepath.Join(dir, envelopeFileName(i, d.Name())), d, i); err != nil {
			return err
		}
	}
	return nil
}

// LoadDir reads every *.engine.gob in dir into a Set, ordered by each
// envelope's recorded Index (name-tiebroken), independent of filesystem
// listing order.
func LoadDir(dir string) (*Set, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type loaded struct {
		d     Driver
		index int
	}
	var all []loaded
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), envelopeSuffix) {
			continue
		}
		d, idx, err := LoadEngineFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("engine: %s: %w", e.Name(), err)
		}
		all = append(all, loaded{d: d, index: idx})
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("engine: no %s files in %s", envelopeSuffix, dir)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].index != all[j].index {
			return all[i].index < all[j].index
		}
		return all[i].d.Name() < all[j].d.Name()
	})
	drivers := make([]Driver, len(all))
	for i, l := range all {
		drivers[i] = l.d
	}
	return NewSet(drivers...)
}

// LoadPath resolves a model path: a directory of per-engine envelopes or a
// single engine envelope. The returned source string describes what was
// read, for logs.
func LoadPath(path string) (*Set, string, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, "", err
	}
	if fi.IsDir() {
		s, err := LoadDir(path)
		if err != nil {
			return nil, "", err
		}
		return s, fmt.Sprintf("%s (dir, %d engines)", path, s.Len()), nil
	}
	d, _, err := LoadEngineFile(path)
	if err != nil {
		return nil, "", fmt.Errorf("engine: %s is not an engine envelope (a legacy monolithic suite gob is no longer read; re-save with mpass-train -out-dir): %w", path, err)
	}
	s, err := NewSet(d)
	if err != nil {
		return nil, "", err
	}
	return s, fmt.Sprintf("%s (single engine)", path), nil
}
