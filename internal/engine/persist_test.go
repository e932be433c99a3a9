package engine

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpass/internal/detect"
	"mpass/internal/nn"
)

// TestEnvelopeRoundTripBitIdentity is the per-engine persistence gate: for
// every persistable engine kind (conv, gbdt), save → load must yield
// the same name, the same content-addressed version, the same threshold, and
// bit-identical scores through both the single-sample and batched paths.
// The version assertion is what the reload drill keys on — reloading the
// same bytes must advertise the same generation.
func TestEnvelopeRoundTripBitIdentity(t *testing.T) {
	_, raws := fixtures(t)
	for _, d := range fullSet(t).Drivers() {
		var buf bytes.Buffer
		if err := SaveEngine(&buf, d, 3); err != nil {
			t.Fatalf("SaveEngine(%s): %v", d.Name(), err)
		}
		loaded, idx, err := LoadEngine(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("LoadEngine(%s): %v", d.Name(), err)
		}
		if idx != 3 {
			t.Fatalf("%s: index %d survived as %d", d.Name(), 3, idx)
		}
		if loaded.Name() != d.Name() {
			t.Fatalf("loaded name %q, want %q", loaded.Name(), d.Name())
		}
		if loaded.Version() != d.Version() {
			t.Fatalf("%s: loaded version %s != saved %s (identical bytes must mean identical version)",
				d.Name(), loaded.Version(), d.Version())
		}
		if loaded.Threshold() != d.Threshold() {
			t.Fatalf("%s: threshold %v survived as %v", d.Name(), d.Threshold(), loaded.Threshold())
		}
		if err := loaded.Health(); err != nil {
			t.Fatalf("%s: unhealthy after load: %v", d.Name(), err)
		}
		batch := loaded.ScoreBatch(raws)
		for j, raw := range raws {
			want := d.Score(raw)
			if got := loaded.Score(raw); got != want {
				t.Fatalf("%s sample %d: loaded score %v != original %v", d.Name(), j, got, want)
			}
			if batch[j] != want {
				t.Fatalf("%s sample %d: loaded batch score %v != original %v", d.Name(), j, batch[j], want)
			}
			if loaded.Label(raw) != d.Label(raw) {
				t.Fatalf("%s sample %d: loaded label flipped", d.Name(), j)
			}
		}
	}
}

// TestSaveEngineRejectsRuntimeOnly: wrapper drivers have no envelope form —
// persisting one must fail loudly instead of writing a file that cannot
// round-trip.
func TestSaveEngineRejectsRuntimeOnly(t *testing.T) {
	wrapped, err := WrapDetector(stub("External", "v1"), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveEngine(&bytes.Buffer{}, wrapped, 0); err == nil {
		t.Fatal("SaveEngine accepted a runtime-only wrapped detector")
	}
	// A set containing one poisons the whole directory save.
	suite, _ := fixtures(t)
	conv, err := NewConvDriver(suite.MalConv)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := NewSet(conv, wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveDir(t.TempDir(), mixed); err == nil {
		t.Fatal("SaveDir accepted a set with a runtime-only member")
	}
}

func TestLoadEngineRejectsBadEnvelopes(t *testing.T) {
	if _, _, err := LoadEngine(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("LoadEngine accepted garbage")
	}
	suite, _ := fixtures(t)
	conv, err := NewConvDriver(suite.MalConv)
	if err != nil {
		t.Fatal(err)
	}
	mangle := func(f func(*envelope)) error {
		var buf bytes.Buffer
		if err := SaveEngine(&buf, conv, 0); err != nil {
			t.Fatal(err)
		}
		var env envelope
		if err := decodePayload(buf.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		f(&env)
		raw, err := encodePayload(&env)
		if err != nil {
			t.Fatal(err)
		}
		_, _, lerr := LoadEngine(bytes.NewReader(raw))
		return lerr
	}
	if err := mangle(func(e *envelope) { e.Magic = "pickle" }); err == nil {
		t.Fatal("LoadEngine accepted a wrong magic")
	}
	if err := mangle(func(e *envelope) { e.Version = engineVersion + 1 }); err == nil {
		t.Fatal("LoadEngine accepted a future format version")
	}
	if err := mangle(func(e *envelope) { e.Kind = "onnx" }); err == nil {
		t.Fatal("LoadEngine accepted an unknown kind")
	}
	if err := mangle(func(e *envelope) { e.Name = "Imposter" }); err == nil {
		t.Fatal("LoadEngine accepted an envelope whose name disagrees with its payload")
	}
}

// TestLoadEngineRejectsGarbage: bytes that are not an envelope — empty,
// text, a gob of some other value — are refused, and a suite with no
// trained models yields no set to persist.
func TestLoadEngineRejectsGarbage(t *testing.T) {
	var other bytes.Buffer
	if err := gob.NewEncoder(&other).Encode(map[string]int{"weights": 1}); err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{
		"empty":     nil,
		"text":      []byte("not a gob stream"),
		"other gob": other.Bytes(),
	} {
		if _, _, err := LoadEngine(bytes.NewReader(raw)); err == nil {
			t.Errorf("LoadEngine accepted %s input", name)
		}
	}
	if _, err := FromSuite(&detect.Suite{}); err == nil {
		t.Fatal("FromSuite accepted an empty suite")
	}
}

// TestLoadEngineTruncatedStream: an envelope cut off at any point must fail
// loudly, never yield a partially initialized engine.
func TestLoadEngineTruncatedStream(t *testing.T) {
	full := convEnvelope(t)
	for _, frac := range []float64{0, 0.1, 0.5, 0.9, 0.999} {
		n := int(frac * float64(len(full)))
		if _, _, err := LoadEngine(bytes.NewReader(full[:n])); err == nil {
			t.Errorf("LoadEngine accepted a stream truncated to %d/%d bytes", n, len(full))
		}
	}
}

// TestLoadEngineCorruptMagic: a flipped byte in the envelope magic must be
// rejected as "not an engine file".
func TestLoadEngineCorruptMagic(t *testing.T) {
	full := convEnvelope(t)
	i := bytes.Index(full, []byte(engineMagic))
	if i < 0 {
		t.Fatal("magic string not found in encoded stream")
	}
	corrupt := append([]byte(nil), full...)
	corrupt[i] ^= 0xFF
	if _, _, err := LoadEngine(bytes.NewReader(corrupt)); err == nil {
		t.Error("LoadEngine accepted a stream with corrupted magic")
	}
}

// convEnvelope is the encoded envelope of the fixture suite's MalConv.
func convEnvelope(t *testing.T) []byte {
	t.Helper()
	suite, _ := fixtures(t)
	conv, err := NewConvDriver(suite.MalConv)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveEngine(&buf, conv, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSuiteEnvelopeRoundTripParity: a trained suite saved as a directory of
// envelopes and loaded back scores and labels bit-identically, member by
// member, through the batched and single-sample paths, and keeps its
// thresholds and gradient-model geometry.
func TestSuiteEnvelopeRoundTripParity(t *testing.T) {
	suite, raws := fixtures(t)
	set, err := FromSuite(suite)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := SaveDir(dir, set); err != nil {
		t.Fatalf("SaveDir: %v", err)
	}
	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if loaded.Len() != set.Len() {
		t.Fatalf("%d engines loaded, want %d", loaded.Len(), set.Len())
	}
	for i, d := range set.Drivers() {
		ld := loaded.Drivers()[i]
		if ld.Name() != d.Name() {
			t.Fatalf("engine %d: loaded name %q != %q", i, ld.Name(), d.Name())
		}
		if ld.Threshold() != d.Threshold() {
			t.Fatalf("%s: threshold %v survived as %v", d.Name(), d.Threshold(), ld.Threshold())
		}
		if c, ok := d.(*ConvDriver); ok {
			lc := ld.(*ConvDriver)
			if lc.SeqLen() != c.SeqLen() || lc.EmbedDim() != c.EmbedDim() {
				t.Fatalf("%s: gradient-model geometry changed across the round trip", d.Name())
			}
		}
		want, got := d.ScoreBatch(raws), ld.ScoreBatch(raws)
		for j, raw := range raws {
			if got[j] != want[j] {
				t.Fatalf("%s sample %d: loaded batch score %v != original %v", d.Name(), j, got[j], want[j])
			}
			if s := ld.Score(raw); s != want[j] {
				t.Fatalf("%s sample %d: loaded single-sample score %v != original %v", d.Name(), j, s, want[j])
			}
			if ld.Label(raw) != d.Label(raw) {
				t.Fatalf("%s sample %d: loaded label flipped", d.Name(), j)
			}
		}
	}
}

// TestEnvelopeQuantRoundTrip: fixed-point tables are runtime-only. An
// engine saved while serving int32 must load on the float64 reference
// path, score bit-identically to its float64 source, and — once the mode
// is re-applied — rebuild quant tables that agree with the source's.
func TestEnvelopeQuantRoundTrip(t *testing.T) {
	suite, raws := fixtures(t)
	conv, err := NewConvDriver(suite.MalConv)
	if err != nil {
		t.Fatal(err)
	}
	defer conv.SetQuantMode(nn.QuantOff)
	conv.SetQuantMode(nn.QuantInt32)
	var buf bytes.Buffer
	if err := SaveEngine(&buf, conv, 0); err != nil {
		t.Fatalf("SaveEngine with quant enabled: %v", err)
	}
	quantScores := conv.ScoreBatch(raws)
	conv.SetQuantMode(nn.QuantOff)
	floatScores := conv.ScoreBatch(raws)

	loaded, _, err := LoadEngine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadEngine: %v", err)
	}
	for j, raw := range raws {
		if got := loaded.Score(raw); got != floatScores[j] {
			t.Fatalf("sample %d: loaded float score %v != source %v", j, got, floatScores[j])
		}
	}
	q, ok := QuantizerOf(loaded)
	if !ok {
		t.Fatal("loaded conv engine is not quantizable")
	}
	q.SetQuantMode(nn.QuantInt32)
	for j, raw := range raws {
		if got := loaded.Score(raw); got != quantScores[j] {
			t.Fatalf("sample %d: loaded quant score %v != source quant %v", j, got, quantScores[j])
		}
	}
}

// TestSaveDirLoadDirRoundTrip: a directory of envelopes must rebuild the
// exact set — same order, same names, same per-engine versions, and
// therefore the same set version.
func TestSaveDirLoadDirRoundTrip(t *testing.T) {
	set := fullSet(t)
	dir := t.TempDir()
	if err := SaveDir(dir, set); err != nil {
		t.Fatalf("SaveDir: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files int
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), envelopeSuffix) {
			files++
		}
	}
	if files != set.Len() {
		t.Fatalf("%d envelope files for %d engines", files, set.Len())
	}
	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if loaded.Version() != set.Version() {
		t.Fatalf("round-tripped set version %s != %s", loaded.Version(), set.Version())
	}
	for i, d := range loaded.Drivers() {
		orig := set.Drivers()[i]
		if d.Name() != orig.Name() || d.Version() != orig.Version() {
			t.Fatalf("member %d: %s/%s, want %s/%s", i, d.Name(), d.Version(), orig.Name(), orig.Version())
		}
	}
	if err := SaveDir(t.TempDir(), nil); err == nil {
		t.Fatal("SaveDir accepted a nil set")
	}
}

// TestLoadDirOrdersByRecordedIndex: load order follows each envelope's
// recorded Index, not filesystem listing order — a renamed file cannot
// reorder the set.
func TestLoadDirOrdersByRecordedIndex(t *testing.T) {
	suite, _ := fixtures(t)
	set, err := FromSuite(suite)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// Write with filenames that sort in reverse of the recorded indices.
	for i, d := range set.Drivers() {
		name := filepath.Join(dir, envelopeFileName(set.Len()-1-i, d.Name()))
		if err := SaveEngineFile(name, d, i); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range set.Names() {
		if loaded.Names()[i] != name {
			t.Fatalf("load order %v, want %v (filenames must not override indices)",
				loaded.Names(), set.Names())
		}
	}
	// An empty directory is an explicit error, not an empty set.
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Fatal("LoadDir accepted a directory with no envelopes")
	}
}

// TestLoadPathResolvesAllForms: directory of envelopes and lone envelope
// file load; a legacy monolithic suite gob, junk, and a missing path are
// refused.
func TestLoadPathResolvesAllForms(t *testing.T) {
	suite, _ := fixtures(t)
	set, err := FromSuite(suite)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := SaveDir(dir, set); err != nil {
		t.Fatal(err)
	}
	fromDir, src, err := LoadPath(dir)
	if err != nil {
		t.Fatalf("LoadPath(dir): %v", err)
	}
	if !strings.Contains(src, "dir") {
		t.Fatalf("dir source = %q", src)
	}
	if fromDir.Version() != set.Version() {
		t.Fatalf("dir load version %s != %s", fromDir.Version(), set.Version())
	}

	// The retired monolithic suite gob ({Magic, Version, Suite}) is
	// refused with an error that names the way forward.
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(struct {
		Magic   string
		Version int
		Suite   *detect.Suite
	}{"mpass-models", 1, suite}); err != nil {
		t.Fatal(err)
	}
	legacyPath := filepath.Join(t.TempDir(), "models.gob")
	if err := os.WriteFile(legacyPath, legacy.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadPath(legacyPath); err == nil || !strings.Contains(err.Error(), "legacy monolithic suite gob is no longer read") {
		t.Fatalf("LoadPath(legacy suite gob) err = %v, want a clear legacy-format rejection", err)
	}

	lone := filepath.Join(t.TempDir(), "malconv.engine.gob")
	if err := SaveEngineFile(lone, set.Drivers()[0], 0); err != nil {
		t.Fatal(err)
	}
	single, src, err := LoadPath(lone)
	if err != nil {
		t.Fatalf("LoadPath(lone envelope): %v", err)
	}
	if !strings.Contains(src, "single") {
		t.Fatalf("single source = %q", src)
	}
	if single.Len() != 1 || single.Names()[0] != "MalConv" {
		t.Fatalf("single load = %v", single.Names())
	}

	junk := filepath.Join(t.TempDir(), "junk.bin")
	if err := os.WriteFile(junk, []byte("neither form"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadPath(junk); err == nil {
		t.Fatal("LoadPath accepted a junk file")
	}
	if _, _, err := LoadPath(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("LoadPath accepted a missing path")
	}
}

// TestSaveEngineFileAtomic: the temp-and-rename write never leaves a torn
// file behind — after a save the directory holds exactly the target file.
func TestSaveEngineFileAtomic(t *testing.T) {
	suite, _ := fixtures(t)
	conv, err := NewConvDriver(suite.MalConv)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "malconv.engine.gob")
	if err := SaveEngineFile(path, conv, 0); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "malconv.engine.gob" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory after save: %v, want only the target file", names)
	}
	// A runtime-only driver fails before the rename: no target file appears.
	wrapped, err := WrapDetector(stub("External", "v1"), "")
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "external.engine.gob")
	if err := SaveEngineFile(bad, wrapped, 1); err == nil {
		t.Fatal("SaveEngineFile accepted a runtime-only driver")
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatal("failed save left a file behind")
	}
}
