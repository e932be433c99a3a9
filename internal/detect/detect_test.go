package detect

import (
	"sync"
	"testing"

	"mpass/internal/corpus"
)

// sharedDataset is built once: detector training is the expensive step in
// this package's tests.
var (
	dsOnce sync.Once
	dsVal  *corpus.Dataset
)

func dataset(t *testing.T) *corpus.Dataset {
	t.Helper()
	dsOnce.Do(func() {
		dsVal = corpus.MakeDataset(7, 40, 40, 0.75)
	})
	return dsVal
}

var (
	modelsOnce sync.Once
	mMalConv   *ConvDetector
	mNonNeg    *ConvDetector
	mLGBM      *GBDTDetector
	mMalGCG    *ConvDetector
	modelsErr  error
)

func models(t *testing.T) (*ConvDetector, *ConvDetector, *GBDTDetector, *ConvDetector) {
	t.Helper()
	ds := dataset(t)
	modelsOnce.Do(func() {
		mMalConv, mNonNeg, mLGBM, mMalGCG, modelsErr = TrainAll(ds, DefaultTrainConfig())
	})
	if modelsErr != nil {
		t.Fatalf("TrainAll: %v", modelsErr)
	}
	return mMalConv, mNonNeg, mLGBM, mMalGCG
}

func TestAllDetectorsSeparateFamilies(t *testing.T) {
	mc, nn_, lg, gcg := models(t)
	ds := dataset(t)
	for _, d := range []Detector{mc, nn_, lg, gcg} {
		acc := Accuracy(d, ds.Test)
		if acc < 0.9 {
			t.Errorf("%s test accuracy = %.2f, want >= 0.9", d.Name(), acc)
		}
	}
}

// TestAUCOfTrainedDetectors checks that trained MalConv and LightGBM rank the
// families apart, independent of any threshold: nearly every (malware,
// benign) pair of test samples must have the malware scored strictly higher.
func TestAUCOfTrainedDetectors(t *testing.T) {
	mc, _, lg, _ := models(t)
	ds := dataset(t)
	for _, d := range []Detector{mc, lg} {
		var mal, ben []float64
		for _, s := range ds.Test {
			if s.Family == corpus.Malware {
				mal = append(mal, d.Score(s.Raw))
			} else {
				ben = append(ben, d.Score(s.Raw))
			}
		}
		if len(mal) == 0 || len(ben) == 0 {
			t.Fatalf("test split has %d malware and %d benign samples", len(mal), len(ben))
		}
		ranked := 0
		for _, m := range mal {
			for _, b := range ben {
				if m > b {
					ranked++
				}
			}
		}
		if frac := float64(ranked) / float64(len(mal)*len(ben)); frac < 0.95 {
			t.Errorf("%s ranks %.3f of (malware, benign) pairs correctly, want near-perfect on the synthetic corpus",
				d.Name(), frac)
		}
	}
}

func TestScoresAreProbabilities(t *testing.T) {
	mc, _, lg, _ := models(t)
	ds := dataset(t)
	for _, s := range ds.Test[:4] {
		for _, d := range []Detector{mc, lg} {
			p := d.Score(s.Raw)
			if p < 0 || p > 1 {
				t.Errorf("%s score = %v", d.Name(), p)
			}
		}
	}
}

func TestNamesMatchPaper(t *testing.T) {
	mc, nn_, lg, gcg := models(t)
	want := []string{"MalConv", "NonNeg", "LightGBM", "MalGCG"}
	got := []string{mc.Name(), nn_.Name(), lg.Name(), gcg.Name()}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("model %d name = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestThresholdsCalibrated(t *testing.T) {
	mc, nn_, lg, gcg := models(t)
	for _, d := range []interface{ Name() string }{mc, nn_, lg, gcg} {
		var thr float64
		switch m := d.(type) {
		case *ConvDetector:
			thr = m.Threshold
		case *GBDTDetector:
			thr = m.Threshold
		}
		if thr < 0.5 || thr > 0.99 {
			t.Errorf("%s threshold = %v outside [0.5, 0.99]", d.Name(), thr)
		}
	}
}

func TestDetectedMalwareFiltersCorrectly(t *testing.T) {
	mc, _, _, _ := models(t)
	ds := dataset(t)
	det := DetectedMalware(mc, ds.Test)
	if len(det) == 0 {
		t.Fatal("no test malware detected at all")
	}
	for _, s := range det {
		if s.Family != corpus.Malware {
			t.Error("benign sample in DetectedMalware output")
		}
		if !mc.Label(s.Raw) {
			t.Error("undetected sample in DetectedMalware output")
		}
	}
}

func TestGradientModelInterface(t *testing.T) {
	mc, nn_, _, gcg := models(t)
	for _, d := range []GradientModel{mc, nn_, gcg} {
		if d.SeqLen() != SeqLen {
			t.Errorf("%s SeqLen = %d", d.Name(), d.SeqLen())
		}
		if d.EmbedDim() <= 0 {
			t.Errorf("%s EmbedDim = %d", d.Name(), d.EmbedDim())
		}
		ig := d.InputGradient(make([]byte, 64), 0)
		if len(ig.Grad) != d.SeqLen()*d.EmbedDim() {
			t.Errorf("%s gradient length %d", d.Name(), len(ig.Grad))
		}
		if len(d.EmbedRow(0)) != d.EmbedDim() {
			t.Errorf("%s EmbedRow length mismatch", d.Name())
		}
	}
}

func TestTrainRejectsBadConfig(t *testing.T) {
	ds := dataset(t)
	bad := TrainConfig{Epochs: 0, BatchSize: 8, LR: 1e-3, Seed: 1}
	if _, err := TrainMalConv(ds, bad); err == nil {
		t.Error("zero-epoch config accepted")
	}
	if _, err := TrainMalConv(&corpus.Dataset{}, DefaultTrainConfig()); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestAccuracyEmptySamples(t *testing.T) {
	mc, _, _, _ := models(t)
	if got := Accuracy(mc, nil); got != 0 {
		t.Errorf("Accuracy(nil) = %v", got)
	}
}
