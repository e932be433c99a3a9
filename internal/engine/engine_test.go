package engine

import (
	"strings"
	"sync"
	"testing"

	"mpass/internal/corpus"
	"mpass/internal/detect"
)

// Shared fixtures: detector training dominates this package's test time, so
// the suite and the probe corpus slice are built exactly once.
var (
	fixOnce  sync.Once
	fixSuite *detect.Suite
	fixRaws  [][]byte
	fixErr   error
)

func fixtures(t *testing.T) (*detect.Suite, [][]byte) {
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
	return fixSuite, fixRaws
}

// fullSet is the trained suite as a Set — every persistable driver kind.
func fullSet(t *testing.T) *Set {
	t.Helper()
	suite, _ := fixtures(t)
	set, err := FromSuite(suite)
	if err != nil {
		t.Fatalf("FromSuite: %v", err)
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

	// Concurrent swappers and readers: each set swapped in leaves the
	// registry exactly once, as one swapper's prev or as the final
	// Current, so no generation is lost or handed to two swappers.
	const swappers, perSwapper = 4, 50
	sets := map[*Set]bool{next: true}
	fresh := make([][]*Set, swappers)
	for w := range fresh {
		for i := 0; i < perSwapper; i++ {
			s, _ := NewSet(stub("A", "v1"))
			fresh[w] = append(fresh[w], s)
			sets[s] = true
		}
	}
	prevs := make([][]*Set, swappers)
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if cur := r.Current(); cur == nil || !sets[cur] {
					t.Error("Current() returned a set that was never swapped in")
					return
				}
			}
		}()
	}
	for w := 0; w < swappers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for _, s := range fresh[w] {
				prev, err := r.Swap(s)
				if err != nil {
					t.Errorf("Swap: %v", err)
					return
				}
				prevs[w] = append(prevs[w], prev)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	seen := map[*Set]int{r.Current(): 1}
	for _, ps := range prevs {
		for _, p := range ps {
			seen[p]++
		}
	}
	for s := range sets {
		if seen[s] != 1 {
			t.Fatalf("a swapped-in set left the registry %d times, want exactly once", seen[s])
		}
	}
	if len(seen) != len(sets) {
		t.Fatalf("%d distinct sets left the registry, %d were swapped in", len(seen), len(sets))
	}
}

// TestGradientModelsKnownModelRule pins MPass's known-model rule (paper
// footnote 6) on the full set: every gradient-capable member except the
// target, in set order. LightGBM never qualifies, so it and external targets
// get all three conv nets.
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
// one mpassd computes on the set it loads from saved envelopes — same
// members, same order — so served and offline attacks use one ensemble per
// target.
func TestGradientModelsMatchSuiteKnownFor(t *testing.T) {
	offline := fullSet(t)
	dir := t.TempDir()
	if err := SaveDir(dir, offline); err != nil {
		t.Fatalf("SaveDir: %v", err)
	}
	set, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	for _, target := range []string{"MalConv", "NonNeg", "LightGBM", "MalGCG", "SomeExternalAV"} {
		want := GradientModels(offline, target)
		got := GradientModels(set, target)
		if len(got) != len(want) {
			t.Fatalf("target %s: %d gradient models on the loaded set, the suite's set has %d",
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
			case "LightGBM":
				t.Fatalf("non-differentiable engine %s passed the gradient probe", g.Name())
			}
		}
	}
}

// TestCapabilityProbesLookThroughWrappers: a detect.Detector adapted via
// WrapDetector keeps its streaming and gradient capabilities
// discoverable through Unwrap.
func TestCapabilityProbesLookThroughWrappers(t *testing.T) {
	suite, _ := fixtures(t)
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
	// And the probes answer no, not panic, for engines without the capability.
	lgbm, err := NewGBDTDriver(suite.LGBM)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := GradientOf(lgbm); ok {
		t.Fatal("tree engine claimed the gradient capability")
	}
	if _, ok := StreamerOf(lgbm); !ok {
		t.Fatal("tree engine lost its streaming capability")
	}
}

// TestFromSuitePreservesPaperOrder: the legacy bridge must present engines
// in §IV-A order, with thresholds intact, scoring bit-identically to the
// wrapped suite members.
func TestFromSuitePreservesPaperOrder(t *testing.T) {
	suite, raws := fixtures(t)
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

func TestDriverConstructorsRejectNil(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"conv", func() error { _, err := NewConvDriver(nil); return err }()},
		{"gbdt", func() error { _, err := NewGBDTDriver(nil); return err }()},
		{"wrap", func() error { _, err := WrapDetector(nil, ""); return err }()},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s constructor accepted nil", c.name)
		}
	}
}

// Compile-time interface checks for the test stub and the real drivers.
var (
	_ Driver = (*stubDriver)(nil)
	_ Driver = (*ConvDriver)(nil)
	_ Driver = (*GBDTDriver)(nil)
)
