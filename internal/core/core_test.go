package core

import (
	"sync"
	"testing"

	"mpass/internal/corpus"
	"mpass/internal/detect"
	"mpass/internal/pefile"
	"mpass/internal/sandbox"
)

// test fixtures: one dataset, the detector suite, and donor pool, built once.
var (
	fixOnce sync.Once
	fixErr  error
	ds      *corpus.Dataset
	malconv *detect.ConvDetector
	nonneg  *detect.ConvDetector
	lgbm    *detect.GBDTDetector
	malgcg  *detect.ConvDetector
	donors  [][]byte
	victims []*corpus.Sample
)

func fixtures(t *testing.T) {
	t.Helper()
	fixOnce.Do(func() {
		ds = corpus.MakeAugmentedDataset(21, 40, 40, 0.75)
		malconv, nonneg, lgbm, malgcg, fixErr = detect.TrainAll(ds, detect.DefaultTrainConfig())
		if fixErr != nil {
			return
		}
		g := corpus.NewGenerator(5000)
		for i := 0; i < 30; i++ {
			donors = append(donors, g.Sample(corpus.Benign).Raw)
		}
		victims = detect.DetectedMalware(malconv, ds.Test)
	})
	if fixErr != nil {
		t.Fatalf("fixtures: %v", fixErr)
	}
	if len(victims) == 0 {
		t.Fatal("no detected malware to attack")
	}
}

func known(t *testing.T, exclude string) []detect.GradientModel {
	t.Helper()
	all := []detect.GradientModel{malconv, nonneg, malgcg}
	var out []detect.GradientModel
	for _, m := range all {
		if m.Name() != exclude {
			out = append(out, m)
		}
	}
	return out
}

// requireValidPE is the structural AE-validity oracle: an adversarial
// example must re-parse as a PE and pass every loader invariant Validate
// checks, not just run the same API trace in the sandbox.
func requireValidPE(t *testing.T, name string, ae []byte) {
	t.Helper()
	f, err := pefile.Parse(ae)
	if err != nil {
		t.Errorf("%s: AE is not a valid PE: %v", name, err)
		return
	}
	if issues := f.Validate(); len(issues) != 0 {
		t.Errorf("%s: AE fails PE validation: %v", name, issues)
	}
}

func TestAttackBypassesMalConv(t *testing.T) {
	fixtures(t)
	cfg := DefaultConfig(known(t, "MalConv"), donors)
	cfg.Seed = 1
	atk, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	succ := 0
	totalQ := 0
	n := 5
	if n > len(victims) {
		n = len(victims)
	}
	for _, v := range victims[:n] {
		oracle := &CountingOracle{Oracle: DetectorOracle{D: malconv}}
		res, err := atk.Attack(v.Raw, oracle)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		if res.Success {
			succ++
			totalQ += res.Queries
			if oracle.Queries != res.Queries {
				t.Errorf("query accounting mismatch: %d vs %d", oracle.Queries, res.Queries)
			}
			requireValidPE(t, v.Name, res.AE)
		}
	}
	if succ < n-1 {
		t.Errorf("bypassed MalConv on %d/%d samples", succ, n)
	}
	if succ > 0 && totalQ/succ > 20 {
		t.Errorf("average queries %d, expected few", totalQ/succ)
	}
}

func TestAEsPreserveFunctionality(t *testing.T) {
	fixtures(t)
	cfg := DefaultConfig(known(t, "MalConv"), donors)
	cfg.Seed = 2
	atk, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	nf := 4
	if nf > len(victims) {
		nf = len(victims)
	}
	for _, v := range victims[:nf] {
		res, err := atk.Attack(v.Raw, &CountingOracle{Oracle: DetectorOracle{D: malconv}})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Success {
			continue
		}
		requireValidPE(t, v.Name, res.AE)
		ok, err := sandbox.BehaviourPreserved(v.Raw, res.AE)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		if !ok {
			t.Errorf("%s: AE does not preserve behaviour", v.Name)
		}
		checked++
	}
	if checked == 0 {
		t.Error("no successful AE to verify")
	}
}

func TestAttackAgainstLightGBM(t *testing.T) {
	// LightGBM is never a known model (not differentiable); the attack runs
	// in pure transfer mode against it.
	fixtures(t)
	cfg := DefaultConfig(known(t, ""), donors) // all three conv models known
	cfg.Seed = 3
	atk, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	succ := 0
	nl := 4
	if nl > len(victims) {
		nl = len(victims)
	}
	for _, v := range victims[:nl] {
		res, err := atk.Attack(v.Raw, &CountingOracle{Oracle: DetectorOracle{D: lgbm}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Success {
			succ++
			requireValidPE(t, v.Name, res.AE)
		}
	}
	if succ == 0 {
		t.Error("no transfer success against LightGBM")
	}
}

func TestRandomFillSkipOptimize(t *testing.T) {
	fixtures(t)
	cfg := DefaultConfig(nil, nil)
	cfg.Fill = FillRandom
	cfg.SkipOptimize = true
	cfg.MaxQueries = 1
	cfg.Seed = 4
	atk, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := victims[0]
	ae, err := atk.buildCandidate(v.Raw, 0)
	if err != nil {
		t.Fatal(err)
	}
	requireValidPE(t, v.Name, ae)
	ok, err := sandbox.BehaviourPreserved(v.Raw, ae)
	if err != nil || !ok {
		t.Errorf("random-fill candidate broken: ok=%v err=%v", ok, err)
	}
}

func TestOtherSecLeavesCodeAndDataIntact(t *testing.T) {
	fixtures(t)
	cfg := DefaultConfig(known(t, "MalConv"), donors)
	cfg.CriticalSections = []string{".rdata", ".idata"}
	cfg.Seed = 5
	atk, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := victims[0]
	ae, err := atk.buildCandidate(v.Raw, 0)
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := pefile.Parse(v.Raw)
	mod, err := pefile.Parse(ae)
	if err != nil {
		t.Fatal(err)
	}
	ot := orig.SectionByName(".text")
	mt := mod.SectionByName(".text")
	for i := range ot.Data {
		if ot.Data[i] != mt.Data[i] {
			t.Fatalf("Other-sec attack modified .text at %d", i)
		}
	}
	requireValidPE(t, v.Name, ae)
	ok, err := sandbox.BehaviourPreserved(v.Raw, ae)
	if err != nil || !ok {
		t.Errorf("other-sec candidate broken: ok=%v err=%v", ok, err)
	}
}

func TestTailOverlayMode(t *testing.T) {
	fixtures(t)
	cfg := DefaultConfig(known(t, "MalConv"), donors)
	cfg.Tail = TailOverlay
	cfg.Seed = 6
	atk, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := victims[0]
	ae, err := atk.buildCandidate(v.Raw, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := pefile.Parse(ae)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Overlay) < cfg.TailLen {
		t.Errorf("overlay = %d bytes, want >= %d", len(f.Overlay), cfg.TailLen)
	}
	requireValidPE(t, v.Name, ae)
	ok, err := sandbox.BehaviourPreserved(v.Raw, ae)
	if err != nil || !ok {
		t.Errorf("overlay candidate broken: ok=%v err=%v", ok, err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{MaxQueries: 0}); err != ErrNoBudget {
		t.Errorf("zero budget: err = %v", err)
	}
	if _, err := New(Config{MaxQueries: 10, Fill: FillDonor}); err != ErrNoDonors {
		t.Errorf("no donors: err = %v", err)
	}
	if _, err := New(Config{MaxQueries: 10, Fill: FillRandom}); err != nil {
		t.Errorf("random fill without donors should be fine: %v", err)
	}
}

func TestQueryBudgetRespected(t *testing.T) {
	fixtures(t)
	// An oracle that always detects forces the attack to exhaust budget.
	always := oracleFunc{name: "always", fn: func([]byte) bool { return true }}
	cfg := DefaultConfig(nil, donors)
	cfg.MaxQueries = 7
	cfg.SkipOptimize = true
	cfg.Seed = 7
	atk, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := atk.Attack(victims[0].Raw, always)
	if err != nil {
		t.Fatal(err)
	}
	if res.Success {
		t.Error("attack succeeded against an always-detect oracle")
	}
	if res.Queries != 7 {
		t.Errorf("queries = %d, want 7", res.Queries)
	}
}

type oracleFunc struct {
	name string
	fn   func([]byte) bool
}

func (o oracleFunc) Name() string             { return o.name }
func (o oracleFunc) Detected(raw []byte) bool { return o.fn(raw) }

func TestHeaderEditsApplied(t *testing.T) {
	fixtures(t)
	cfg := DefaultConfig(nil, donors)
	cfg.SkipOptimize = true
	cfg.Seed = 8
	atk, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := victims[0]
	ae, err := atk.buildCandidate(v.Raw, 0)
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := pefile.Parse(v.Raw)
	mod, _ := pefile.Parse(ae)
	if orig.FileHeader.TimeDateStamp == mod.FileHeader.TimeDateStamp {
		t.Error("timestamp unchanged")
	}
	standard := []string{".reloc", ".bss", ".tls", ".edata", ".pdata", ".xdata", ".didat", ".crt"}
	found := false
	for _, name := range standard {
		if mod.SectionByName(name) != nil {
			found = true
		}
	}
	if !found {
		t.Error("stub not renamed to a standard section name")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	fixtures(t)
	build := func() []byte {
		cfg := DefaultConfig(nil, donors)
		cfg.SkipOptimize = true
		cfg.Seed = 99
		atk, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ae, err := atk.buildCandidate(victims[0].Raw, 0)
		if err != nil {
			t.Fatal(err)
		}
		return ae
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatal("nondeterministic candidate size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic candidate bytes")
		}
	}
}
