package engine

import (
	"math"
	"strings"
	"sync"
	"testing"

	"mpass/internal/corpus"
	"mpass/internal/detect"
	"mpass/internal/nn"
)

// Shared fixtures: detector training dominates this package's test time, so
// the suite, the RNN, and the probe corpus slice are built exactly once.
var (
	fixOnce  sync.Once
	fixSuite *detect.Suite
	fixRNN   *RNNDetector
	fixRaws  [][]byte
	fixErr   error
)

func fixtures(t *testing.T) (*detect.Suite, *RNNDetector, [][]byte) {
	t.Helper()
	fixOnce.Do(func() {
		ds := corpus.MakeDataset(7, 16, 16, 0.75)
		cfg := detect.DefaultTrainConfig()
		cfg.Epochs = 4
		cfg.TargetFPR = 0.05
		fixSuite, fixErr = detect.TrainSuite(ds, cfg)
		if fixErr != nil {
			return
		}
		fixRNN, fixErr = TrainRNN(ds, DefaultRNNConfig())
		if fixErr != nil {
			return
		}
		for _, s := range ds.Test {
			fixRaws = append(fixRaws, s.Raw)
			if len(fixRaws) == 8 {
				break
			}
		}
	})
	if fixErr != nil {
		t.Fatalf("building fixtures: %v", fixErr)
	}
	return fixSuite, fixRNN, fixRaws
}

// fullSet is the suite plus the RNN engine — every persistable driver kind.
func fullSet(t *testing.T) *Set {
	t.Helper()
	suite, rnn, _ := fixtures(t)
	set, err := FromSuite(suite)
	if err != nil {
		t.Fatalf("FromSuite: %v", err)
	}
	drv, err := NewRNNDriver(rnn)
	if err != nil {
		t.Fatalf("NewRNNDriver: %v", err)
	}
	set, err = NewSet(append(append([]Driver(nil), set.Drivers()...), drv)...)
	if err != nil {
		t.Fatalf("NewSet: %v", err)
	}
	return set
}

// stubDriver is a minimal Driver for registry-semantics tests, where real
// weights would only add noise.
type stubDriver struct {
	name    string
	version string
	score   float64
}

func (d *stubDriver) Name() string             { return d.name }
func (d *stubDriver) Score(raw []byte) float64 { return d.score }
func (d *stubDriver) Label(raw []byte) bool    { return d.score >= 0.5 }
func (d *stubDriver) Threshold() float64       { return 0.5 }
func (d *stubDriver) Version() string          { return d.version }
func (d *stubDriver) Health() error            { return nil }
func (d *stubDriver) ScoreBatch(raws [][]byte) []float64 {
	out := make([]float64, len(raws))
	for i := range out {
		out[i] = d.score
	}
	return out
}

func stub(name, version string) *stubDriver {
	return &stubDriver{name: name, version: version, score: 0.25}
}

func TestNewSetValidates(t *testing.T) {
	if _, err := NewSet(); err == nil {
		t.Fatal("NewSet accepted an empty set")
	}
	if _, err := NewSet(stub("A", "v1"), nil); err == nil {
		t.Fatal("NewSet accepted a nil driver")
	}
	if _, err := NewSet(stub("A", "v1"), stub("A", "v2")); err == nil {
		t.Fatal("NewSet accepted duplicate names")
	}
	if _, err := NewSet(stub("", "v1")); err == nil {
		t.Fatal("NewSet accepted an empty name")
	}
}

// TestSetVersionTracksMembership: the set version is a digest over member
// names and versions — identical membership means identical version, and any
// membership, order, or weight change produces a new one. The scan cache and
// the reload drill both key on this.
func TestSetVersionTracksMembership(t *testing.T) {
	a, b := stub("A", "v1"), stub("B", "v1")
	s1, err := NewSet(a, b)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSet(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Version() != s2.Version() {
		t.Fatalf("identical membership: versions %s != %s", s1.Version(), s2.Version())
	}
	reordered, _ := NewSet(b, a)
	if reordered.Version() == s1.Version() {
		t.Fatal("reordered set kept the same version")
	}
	bumped, _ := NewSet(a, stub("B", "v2"))
	if bumped.Version() == s1.Version() {
		t.Fatal("weight change (B v1 -> v2) kept the same set version")
	}
	grown, _ := NewSet(a, b, stub("C", "v1"))
	if grown.Version() == s1.Version() {
		t.Fatal("membership change kept the same set version")
	}
}

func TestSetLookups(t *testing.T) {
	s, err := NewSet(stub("A", "v1"), stub("B", "v1"))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Names(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("Names() = %v", got)
	}
	if d, ok := s.Get("B"); !ok || d.Name() != "B" {
		t.Fatalf("Get(B) = %v, %v", d, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get(missing) reported ok")
	}
	if i, ok := s.Index("B"); !ok || i != 1 {
		t.Fatalf("Index(B) = %d, %v", i, ok)
	}
}

// TestRegistrySwapIsolation: a reader that loaded the old generation keeps a
// consistent view after a swap — the zero-mixed-version property the serving
// layer builds on.
func TestRegistrySwapIsolation(t *testing.T) {
	old, _ := NewSet(stub("A", "v1"))
	r, err := NewRegistry(old)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRegistry(nil); err == nil {
		t.Fatal("NewRegistry accepted nil")
	}
	held := r.Current()

	next, _ := NewSet(stub("A", "v2"), stub("B", "v1"))
	prev, err := r.Swap(next)
	if err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if prev != old {
		t.Fatal("Swap did not return the previous set")
	}
	if r.Current() != next {
		t.Fatal("Current() is not the swapped-in set")
	}
	if held.Version() != old.Version() || held.Len() != 1 {
		t.Fatal("a held reference changed under the swap")
	}
	if _, err := r.Swap(nil); err == nil {
		t.Fatal("Swap accepted nil")
	}
}

func TestRegistryRegisterCopiesOnWrite(t *testing.T) {
	initial, _ := NewSet(stub("A", "v1"))
	r, _ := NewRegistry(initial)
	held := r.Current()
	if err := r.Register(stub("B", "v1")); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if r.Current().Len() != 2 {
		t.Fatalf("registered set has %d members, want 2", r.Current().Len())
	}
	if held.Len() != 1 {
		t.Fatal("Register mutated the previous generation")
	}
	if err := r.Register(stub("A", "v9")); err == nil {
		t.Fatal("Register accepted a name collision")
	}
	if r.Current().Len() != 2 {
		t.Fatal("failed Register changed the active set")
	}
}

// TestGradientModelsKnownModelRule pins MPass's known-model rule (paper
// footnote 6) on the full set: every gradient-capable member except the
// target, in set order. LightGBM and the recurrent RNN-PPL never qualify, so
// they and external targets get all three conv nets.
func TestGradientModelsKnownModelRule(t *testing.T) {
	set := fullSet(t)
	convs := []string{"MalConv", "NonNeg", "MalGCG"}
	for _, c := range []struct {
		target string
		want   []string
	}{
		{"MalConv", []string{"NonNeg", "MalGCG"}},
		{"NonNeg", []string{"MalConv", "MalGCG"}},
		{"LightGBM", convs},
		{"MalGCG", []string{"MalConv", "NonNeg"}},
		{"RNN-PPL", convs},
		{"AV1", convs},
	} {
		var got []string
		for _, g := range GradientModels(set, c.target) {
			got = append(got, g.Name())
		}
		if strings.Join(got, " ") != strings.Join(c.want, " ") {
			t.Errorf("target %s: known models %v, want %v", c.target, got, c.want)
		}
	}
	if GradientModels(nil, "MalConv") != nil {
		t.Fatal("GradientModels(nil) != nil")
	}
}

// TestGradientModelsMatchSuiteKnownFor: the known-model ensemble the offline
// harness computes on its suite-built set (FromSuite, as in eval.Setup) is the
// one mpassd computes on its full set with the RNN added — same members, same
// order — so served and offline attacks use one ensemble per target.
func TestGradientModelsMatchSuiteKnownFor(t *testing.T) {
	suite, _, _ := fixtures(t)
	offline, err := FromSuite(suite)
	if err != nil {
		t.Fatalf("FromSuite: %v", err)
	}
	set := fullSet(t)
	for _, target := range []string{"MalConv", "NonNeg", "LightGBM", "MalGCG", "RNN-PPL", "SomeExternalAV"} {
		want := GradientModels(offline, target)
		got := GradientModels(set, target)
		if len(got) != len(want) {
			t.Fatalf("target %s: %d gradient models on the full set, the suite's set has %d",
				target, len(got), len(want))
		}
		for i := range want {
			if got[i].Name() != want[i].Name() {
				t.Fatalf("target %s: ensemble[%d] = %s, want %s (set order must match suite order)",
					target, i, got[i].Name(), want[i].Name())
			}
		}
		for _, g := range got {
			switch g.Name() {
			case target:
				t.Fatalf("target %s included in its own known-model ensemble", target)
			case "LightGBM", "RNN-PPL":
				t.Fatalf("non-differentiable engine %s passed the gradient probe", g.Name())
			}
		}
	}
}

// TestSetQuantMode: the set-wide switch moves every conv engine onto its
// int32 tables (scores within the certified 1e-6), leaves engines without
// the capability bit-identical, and QuantOff restores every float score bit
// for bit.
func TestSetQuantMode(t *testing.T) {
	_, _, raws := fixtures(t)
	set := fullSet(t)
	defer set.SetQuantMode(nn.QuantOff)
	ref := make([][]float64, set.Len())
	for i, d := range set.Drivers() {
		ref[i] = d.ScoreBatch(raws)
	}

	set.SetQuantMode(nn.QuantInt32)
	for i, d := range set.Drivers() {
		_, quantizes := QuantizerOf(d)
		moved := false
		for j, got := range d.ScoreBatch(raws) {
			moved = moved || got != ref[i][j]
			switch {
			case quantizes && math.Abs(got-ref[i][j]) > 1e-6:
				t.Fatalf("%s sample %d: int32 score %v deviates from float %v by more than 1e-6",
					d.Name(), j, got, ref[i][j])
			case !quantizes && got != ref[i][j]:
				t.Fatalf("%s sample %d: score moved to %v from %v without a quantizer",
					d.Name(), j, got, ref[i][j])
			}
		}
		// The int32 tables round, so a conv engine that really switched
		// moves at least one score in its last bits.
		if quantizes && !moved {
			t.Fatalf("%s: no score moved, so the int32 tables never served", d.Name())
		}
	}

	set.SetQuantMode(nn.QuantOff)
	for i, d := range set.Drivers() {
		for j, got := range d.ScoreBatch(raws) {
			if math.Float64bits(got) != math.Float64bits(ref[i][j]) {
				t.Fatalf("%s sample %d: QuantOff score %v != original float %v", d.Name(), j, got, ref[i][j])
			}
		}
	}
}

// TestCapabilityProbesLookThroughWrappers: a detect.Detector adapted via
// WrapDetector keeps its streaming/gradient/quantization capabilities
// discoverable through Unwrap.
func TestCapabilityProbesLookThroughWrappers(t *testing.T) {
	suite, rnn, _ := fixtures(t)
	wrapped, err := WrapDetector(suite.MalConv, "")
	if err != nil {
		t.Fatal(err)
	}
	if wrapped.Version() != "wrapped-MalConv" {
		t.Fatalf("wrapped version = %s", wrapped.Version())
	}
	if _, ok := StreamerOf(wrapped); !ok {
		t.Fatal("streamer capability lost through the wrapper")
	}
	if _, ok := GradientOf(wrapped); !ok {
		t.Fatal("gradient capability lost through the wrapper")
	}
	if _, ok := QuantizerOf(wrapped); !ok {
		t.Fatal("quantizer capability lost through the wrapper")
	}
	// And the probes answer no, not panic, for engines without the capability.
	rnnDrv, err := NewRNNDriver(rnn)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := GradientOf(rnnDrv); ok {
		t.Fatal("recurrent engine claimed the gradient capability")
	}
	if _, ok := StreamerOf(rnnDrv); !ok {
		t.Fatal("RNN engine lost its streaming capability")
	}
	if _, ok := QuantizerOf(stub("A", "v1")); ok {
		t.Fatal("stub claimed the quantizer capability")
	}
}

// TestFromSuitePreservesPaperOrder: the legacy bridge must present engines
// in §IV-A order, with thresholds intact, scoring bit-identically to the
// wrapped suite members.
func TestFromSuitePreservesPaperOrder(t *testing.T) {
	suite, _, raws := fixtures(t)
	set, err := FromSuite(suite)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"MalConv", "NonNeg", "LightGBM", "MalGCG"}
	for i, name := range want {
		if set.Names()[i] != name {
			t.Fatalf("set order %v, want %v", set.Names(), want)
		}
	}
	offline := []detect.Detector{suite.MalConv, suite.NonNeg, suite.LGBM, suite.MalGCG}
	for i, d := range set.Drivers() {
		underlying := offline[i]
		for _, raw := range raws {
			if d.Score(raw) != underlying.Score(raw) {
				t.Fatalf("%s: driver score != suite score", d.Name())
			}
		}
		batch := d.ScoreBatch(raws)
		for j, raw := range raws {
			if batch[j] != underlying.Score(raw) {
				t.Fatalf("%s sample %d: batch score %v != single %v",
					d.Name(), j, batch[j], underlying.Score(raw))
			}
		}
		if d.Health() != nil {
			t.Fatalf("%s: unhealthy after construction: %v", d.Name(), d.Health())
		}
	}
	if set.Drivers()[0].Threshold() != suite.MalConv.Threshold {
		t.Fatal("MalConv threshold lost in the bridge")
	}
	if set.Drivers()[2].Threshold() != suite.LGBM.Threshold {
		t.Fatal("LightGBM threshold lost in the bridge")
	}
}

// TestRNNStreamMatchesBuffered is the RNN's streaming parity gate: feeding
// the body in chunks of any size must produce exactly the buffered score —
// same ops in the same order, the repo-wide bit-identity contract.
func TestRNNStreamMatchesBuffered(t *testing.T) {
	_, rnn, raws := fixtures(t)
	for _, chunk := range []int{1, 7, 64, 1 << 20} {
		for i, raw := range raws {
			st := rnn.NewStream()
			for at := 0; at < len(raw); at += chunk {
				end := at + chunk
				if end > len(raw) {
					end = len(raw)
				}
				st.Feed(raw[at:end])
			}
			if got, want := st.Finish(), rnn.Score(raw); got != want {
				t.Fatalf("chunk %d sample %d: streamed %v != buffered %v", chunk, i, got, want)
			}
		}
	}
	// Degenerate bodies: empty and single-byte streams have no predicted
	// byte, so both paths saturate rather than divide by zero.
	for _, raw := range [][]byte{nil, {0x4d}} {
		st := rnn.NewStream()
		st.Feed(raw)
		if got, want := st.Finish(), rnn.Score(raw); got != want {
			t.Fatalf("len %d: streamed %v != buffered %v", len(raw), got, want)
		}
	}
}

func TestRNNSeparatesFamilies(t *testing.T) {
	_, rnn, _ := fixtures(t)
	if rnn.Name() != "RNN-PPL" {
		t.Fatalf("RNN name = %q", rnn.Name())
	}
	if rnn.Thresh < 0.5 || rnn.Thresh > 0.99 {
		t.Fatalf("calibrated threshold %v outside [0.5, 0.99]", rnn.Thresh)
	}
	for i, raw := range corpusSplit(t, corpus.Benign, 8) {
		if s := rnn.Score(raw); s < 0 || s > 1 {
			t.Fatalf("benign %d: score %v outside [0, 1]", i, s)
		}
	}
}

// corpusSplit samples fresh raws of one family from the shared generator
// seed, independent of the training split.
func corpusSplit(t *testing.T, family corpus.Family, n int) [][]byte {
	t.Helper()
	g := corpus.NewGenerator(99)
	out := make([][]byte, n)
	for i := range out {
		out[i] = g.Sample(family).Raw
	}
	return out
}

func TestDriverConstructorsRejectNil(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"conv", func() error { _, err := NewConvDriver(nil); return err }()},
		{"gbdt", func() error { _, err := NewGBDTDriver(nil); return err }()},
		{"rnn", func() error { _, err := NewRNNDriver(nil); return err }()},
		{"wrap", func() error { _, err := WrapDetector(nil, ""); return err }()},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s constructor accepted nil", c.name)
		}
	}
}

func TestTrainRNNRejectsBadConfig(t *testing.T) {
	_, _, _ = fixtures(t)
	bad := DefaultRNNConfig()
	bad.Hidden = 0
	if _, err := TrainRNN(&corpus.Dataset{}, bad); err == nil {
		t.Fatal("TrainRNN accepted Hidden=0")
	}
	ok := DefaultRNNConfig()
	if _, err := TrainRNN(&corpus.Dataset{}, ok); err == nil {
		t.Fatal("TrainRNN accepted an empty dataset")
	}
}

// Compile-time interface checks for the test stub and the real drivers.
var (
	_ Driver = (*stubDriver)(nil)
	_ Driver = (*ConvDriver)(nil)
	_ Driver = (*GBDTDriver)(nil)
	_ Driver = (*RNNDriver)(nil)
)
