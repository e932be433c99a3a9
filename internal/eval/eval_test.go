package eval

import (
	"strings"
	"sync"
	"testing"

	"mpass/internal/engine"
)

// One shared quick-config suite: Setup trains nine models and is by far the
// slowest step.
var (
	suiteOnce sync.Once
	suiteErr  error
	s         *Suite
)

func quickSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() {
		s, suiteErr = Setup(QuickConfig())
	})
	if suiteErr != nil {
		t.Fatalf("Setup: %v", suiteErr)
	}
	return s
}

func TestSetupSelectsEligibleVictims(t *testing.T) {
	s := quickSuite(t)
	if len(s.Victims) == 0 {
		t.Fatal("no victims")
	}
	for _, v := range s.Victims {
		for _, d := range s.Engines.Drivers() {
			if !d.Label(v.Raw) {
				t.Errorf("victim %s not detected by %s", v.Name, d.Name())
			}
		}
	}
}

// TestKnownForExcludesTargetAndLightGBM: the harness's own engine set gives
// the paper's known-model ensemble — neither the target nor LightGBM for a
// MalConv target, all three conv nets for a LightGBM target.
func TestKnownForExcludesTargetAndLightGBM(t *testing.T) {
	s := quickSuite(t)
	known := engine.GradientModels(s.Engines, "MalConv")
	if len(known) != 2 {
		t.Fatalf("known models = %d, want 2", len(known))
	}
	for _, m := range known {
		if m.Name() == "MalConv" || m.Name() == "LightGBM" {
			t.Errorf("%s must not be a known model here", m.Name())
		}
	}
	if got := len(engine.GradientModels(s.Engines, "LightGBM")); got != 3 {
		t.Errorf("LightGBM target: known = %d, want 3", got)
	}
}

func TestMetricsArithmetic(t *testing.T) {
	m := Metrics{Success: 2, Total: 4, Queries: 20, SumAPR: 300}
	if m.ASR() != 50 {
		t.Errorf("ASR = %v", m.ASR())
	}
	if m.AVQ() != 5 {
		t.Errorf("AVQ = %v", m.AVQ())
	}
	if m.APR() != 150 {
		t.Errorf("APR = %v", m.APR())
	}
	var zero Metrics
	if zero.ASR() != 0 || zero.AVQ() != 0 || zero.APR() != 0 {
		t.Error("zero metrics not zero")
	}
}

func TestOfflineGridSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid in -short mode")
	}
	s := quickSuite(t)
	grid, err := s.RunOfflineGrid()
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Attacks) != 5 || len(grid.Targets) != 4 {
		t.Fatalf("grid = %d attacks × %d targets", len(grid.Attacks), len(grid.Targets))
	}
	// Primary claim: MPass's ASR is the maximum on every differentiable
	// target. LightGBM is the documented exception (EXPERIMENTS.md): it is
	// never a known model, and on this substrate conv-ensemble transfer to
	// a tree model over structural features is only partial, while
	// benign-injection baselines can wash the trees out entirely.
	for _, tgt := range grid.Targets {
		mp := grid.Cell("MPass", tgt).ASR()
		if tgt == "LightGBM" {
			if mp == 0 {
				t.Errorf("MPass ASR on LightGBM = 0, want partial transfer")
			}
			continue
		}
		for _, atk := range grid.Attacks {
			if atk == "MPass" {
				continue
			}
			if got := grid.Cell(atk, tgt).ASR(); got > mp {
				t.Errorf("%s ASR %.1f beats MPass %.1f on %s", atk, got, mp, tgt)
			}
		}
		if mp < 80 {
			t.Errorf("MPass ASR on %s = %.1f, want high", tgt, mp)
		}
		// Query efficiency: MPass needs the fewest queries.
		mq := grid.Cell("MPass", tgt).AVQ()
		if mq > 15 {
			t.Errorf("MPass AVQ on %s = %.1f", tgt, mq)
		}
	}

	t.Run("functionality", func(t *testing.T) {
		reports, err := s.RunFunctionalityCheck(grid)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reports {
			if r.Attack == "MPass" && r.Broken > 0 {
				t.Errorf("MPass broke %d AEs", r.Broken)
			}
		}
		out := RenderFunctionality(reports)
		if !strings.Contains(out, "MPass") {
			t.Error("render missing MPass row")
		}
	})

	t.Run("render", func(t *testing.T) {
		for _, m := range []Metric{MetricASR, MetricAVQ, MetricAPR} {
			out := grid.RenderTable("TABLE", m)
			if !strings.Contains(out, "MalConv") || !strings.Contains(out, "MPass") {
				t.Errorf("render %v missing headers:\n%s", m, out)
			}
		}
	})
}

func TestPEMRankingFindsContentSections(t *testing.T) {
	s := quickSuite(t)
	r, err := s.RunPEMRanking(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Result.Critical) == 0 {
		t.Fatal("PEM found no common critical sections")
	}
	// The attack-relevant property: every PEM-critical section must be in
	// MPass's default modification set (code + initialized-data sections),
	// so the attack's recovery construction covers the features the models
	// actually use. Header-adjacent sections would break this.
	content := map[string]bool{
		".text": true, ".data": true, ".rdata": true, ".idata": true, ".rsrc": true,
	}
	for _, c := range r.Result.Critical {
		if !content[c] {
			t.Errorf("critical section %q outside the code/data modification set", c)
		}
	}
	out := RenderPEM(r)
	if !strings.Contains(out, "common critical sections") {
		t.Error("RenderPEM output malformed")
	}
}

func TestSectionStats(t *testing.T) {
	s := quickSuite(t)
	frac, err := s.SectionStats()
	if err != nil {
		t.Fatal(err)
	}
	if frac < 0.4 || frac > 1 {
		t.Errorf("code+data fraction = %.2f, want the dominant share", frac)
	}
}

func TestLearningCurveUnknownAV(t *testing.T) {
	s := quickSuite(t)
	if _, err := s.RunLearningCurve(newGrid(), "AV99", 3); err == nil {
		t.Error("unknown AV accepted")
	}
}

func TestRenderCurves(t *testing.T) {
	curves := LearningCurves{
		"MPass": {100, 100, 100},
		"MAB":   {100, 60, 40},
	}
	out := RenderCurves("AV1", curves)
	if !strings.Contains(out, "wk2") || !strings.Contains(out, "MAB") {
		t.Errorf("curve render malformed:\n%s", out)
	}
}

func TestMetricStrings(t *testing.T) {
	if MetricASR.String() != "ASR (%)" || MetricAVQ.String() != "AVQ" || MetricAPR.String() != "APR (%)" {
		t.Error("metric names wrong")
	}
	if Metric(99).String() != "?" {
		t.Error("unknown metric name")
	}
}

func TestConfigValidateRejectsNegativeWorkers(t *testing.T) {
	cfg := QuickConfig()
	cfg.Workers = -1
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted Workers = -1")
	}
	if _, err := Setup(cfg); err == nil {
		t.Error("Setup accepted Workers = -1")
	}
	cfg.Workers = 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("Validate rejected Workers = 0: %v", err)
	}
}
