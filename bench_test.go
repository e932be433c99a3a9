// Package mpass_test hosts the benchmark harness that regenerates every
// table and figure of the paper (one testing.B benchmark per experiment;
// see DESIGN.md's experiment index), plus micro-benchmarks of the core
// primitives the attack pipeline is built from.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks share one lazily built evaluation suite and
// cache the offline grid, so Tables I-III pay for the attack grid once.
// Custom metrics (ASR %, AVQ, APR %) are attached via b.ReportMetric.
package mpass_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"mpass/internal/attacks"
	"mpass/internal/core"
	"mpass/internal/corpus"
	"mpass/internal/detect"
	"mpass/internal/engine"
	"mpass/internal/eval"
	"mpass/internal/features"
	"mpass/internal/nn"
	"mpass/internal/packer"
	"mpass/internal/pefile"
	"mpass/internal/recovery"
	"mpass/internal/sandbox"
	"mpass/internal/shapley"
)

// benchConfig sizes the experiment benchmarks: the paper's 100-query budget
// on a compact victim set.
func benchConfig() eval.Config {
	cfg := eval.DefaultConfig()
	cfg.Victims = 6
	cfg.NumMalware, cfg.NumBenign = 40, 40
	cfg.TrainFrac = 0.75
	return cfg
}

var (
	suiteOnce sync.Once
	suiteVal  *eval.Suite
	suiteErr  error
)

func suite(b *testing.B) *eval.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suiteVal, suiteErr = eval.Setup(benchConfig())
	})
	if suiteErr != nil {
		b.Fatalf("suite: %v", suiteErr)
	}
	return suiteVal
}

// malconv resolves the suite's MalConv engine. Benchmarks call it before
// their timed loops, so the lookup is never measured.
func malconv(b *testing.B) *engine.ConvDriver {
	b.Helper()
	d, _ := suite(b).Engines.Get("MalConv")
	mc, ok := d.(*engine.ConvDriver)
	if !ok {
		b.Fatalf("suite has no MalConv conv engine (got %T)", d)
	}
	return mc
}

var (
	gridOnce sync.Once
	gridVal  *eval.Grid
	gridErr  error
)

func offlineGrid(b *testing.B) *eval.Grid {
	b.Helper()
	s := suite(b)
	gridOnce.Do(func() {
		gridVal, gridErr = s.RunOfflineGrid()
	})
	if gridErr != nil {
		b.Fatalf("offline grid: %v", gridErr)
	}
	return gridVal
}

var (
	avGridOnce sync.Once
	avGridVal  *eval.Grid
	avGridErr  error
)

func avGrid(b *testing.B) *eval.Grid {
	b.Helper()
	s := suite(b)
	avGridOnce.Do(func() {
		avGridVal, avGridErr = s.RunAVGrid()
	})
	if avGridErr != nil {
		b.Fatalf("AV grid: %v", avGridErr)
	}
	return avGridVal
}

// reportGrid attaches one metric per (attack, target) cell. Metric units
// must be whitespace-free, so attack names like "Random data" are
// hyphenated.
func reportGrid(b *testing.B, g *eval.Grid, m eval.Metric, unit string) {
	for _, atk := range g.Attacks {
		for _, tgt := range g.Targets {
			if c := g.Cell(atk, tgt); c != nil {
				var v float64
				switch m {
				case eval.MetricASR:
					v = c.ASR()
				case eval.MetricAVQ:
					v = c.AVQ()
				case eval.MetricAPR:
					v = c.APR()
				}
				name := strings.ReplaceAll(atk, " ", "-") + "/" + tgt + "_" + unit
				b.ReportMetric(v, name)
			}
		}
	}
}

// BenchmarkPEMRanking regenerates the §III-B explainability finding
// (Algorithm 1 over the known models).
func BenchmarkPEMRanking(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		r, err := s.RunPEMRanking(5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Top2OverTop3, "rank2/rank3_ratio")
		b.ReportMetric(float64(len(r.Result.Critical)), "critical_sections")
	}
}

// BenchmarkTable1ASR regenerates Table I: attack success rate of the five
// attacks against the four offline models.
func BenchmarkTable1ASR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportGrid(b, offlineGrid(b), eval.MetricASR, "ASR")
	}
}

// BenchmarkTable2AVQ regenerates Table II: average queries per sample.
func BenchmarkTable2AVQ(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportGrid(b, offlineGrid(b), eval.MetricAVQ, "AVQ")
	}
}

// BenchmarkTable3APR regenerates Table III: average appending rate.
func BenchmarkTable3APR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportGrid(b, offlineGrid(b), eval.MetricAPR, "APR")
	}
}

// BenchmarkFunctionality regenerates the §IV-A sandbox verification of
// every successful AE.
func BenchmarkFunctionality(b *testing.B) {
	s := suite(b)
	grid := offlineGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports, err := s.RunFunctionalityCheck(grid)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range reports {
			b.ReportMetric(r.Rate(), r.Attack+"_preserved%")
		}
	}
}

// BenchmarkFig3AVGrid regenerates Figure 3: ASR against the five
// commercial-AV simulators.
func BenchmarkFig3AVGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportGrid(b, avGrid(b), eval.MetricASR, "ASR")
	}
}

// BenchmarkTable4Packers regenerates Table IV: UPX/PESpin/ASPack vs MPass
// on the AVs.
func BenchmarkTable4Packers(b *testing.B) {
	s := suite(b)
	ag := avGrid(b)
	mpassRow := make(map[string]*eval.Cell)
	for _, tgt := range ag.Targets {
		if c := ag.Cell("MPass", tgt); c != nil {
			mpassRow[tgt] = c
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid, err := s.RunPackerComparison(mpassRow)
		if err != nil {
			b.Fatal(err)
		}
		reportGrid(b, grid, eval.MetricASR, "ASR")
	}
}

// BenchmarkFig4Learning regenerates Figure 4: bypass rate of first-time
// successful AEs across five weekly AV learning rounds.
func BenchmarkFig4Learning(b *testing.B) {
	s := suite(b)
	ag := avGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, avName := range []string{"AV1", "AV3", "AV4"} {
			curves, err := s.RunLearningCurve(ag, avName, 5)
			if err != nil {
				b.Fatal(err)
			}
			for atk, series := range curves {
				if len(series) > 0 {
					b.ReportMetric(series[len(series)-1], avName+"/"+atk+"_wk4_bypass%")
				}
			}
		}
	}
}

// BenchmarkTable5OtherSec regenerates Table V: the Other-sec position
// ablation on the AVs.
func BenchmarkTable5OtherSec(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		grid, err := s.RunOtherSecAblation()
		if err != nil {
			b.Fatal(err)
		}
		reportGrid(b, grid, eval.MetricASR, "ASR")
	}
}

// BenchmarkTable6RandomData regenerates Table VI: random data at MPass's
// modification positions.
func BenchmarkTable6RandomData(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		grid, err := s.RunRandomDataAblation()
		if err != nil {
			b.Fatal(err)
		}
		reportGrid(b, grid, eval.MetricASR, "ASR")
	}
}

// BenchmarkEnsembleAblation covers the DESIGN.md design-choice ablation:
// transfer quality with one versus all known models.
func BenchmarkEnsembleAblation(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		grid, err := s.RunEnsembleAblation()
		if err != nil {
			b.Fatal(err)
		}
		reportGrid(b, grid, eval.MetricASR, "ASR")
	}
}

// --- micro-benchmarks of the pipeline primitives ---

func benchVictim(b *testing.B) []byte {
	b.Helper()
	return corpus.NewGenerator(404).Sample(corpus.Malware).Raw
}

// BenchmarkPEParse measures PE32 parsing.
func BenchmarkPEParse(b *testing.B) {
	raw := benchVictim(b)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pefile.Parse(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSandboxRun measures full program execution with tracing.
func BenchmarkSandboxRun(b *testing.B) {
	raw := benchVictim(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sandbox.Run(raw)
		if err != nil || !res.Halted() {
			b.Fatal(err, res.Err)
		}
	}
}

// BenchmarkRecoveryBuild measures the shuffled recovery construction.
func BenchmarkRecoveryBuild(b *testing.B) {
	raw := benchVictim(b)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := pefile.Parse(raw)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := recovery.Build(f, recovery.Options{Shuffle: true, Rng: rng}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeatureExtract measures the EMBER-style feature pipeline.
func BenchmarkFeatureExtract(b *testing.B) {
	raw := benchVictim(b)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		features.Extract(raw)
	}
}

// BenchmarkDetectorPredict measures one MalConv forward pass.
func BenchmarkDetectorPredict(b *testing.B) {
	mc := malconv(b)
	raw := benchVictim(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.Score(raw)
	}
}

// BenchmarkDetectorPredictQuant measures the same MalConv forward pass
// through the int32 fixed-point tables — the certified quantized serving
// mode. Compare against BenchmarkDetectorPredict in the same run.
func BenchmarkDetectorPredictQuant(b *testing.B) {
	s := suite(b)
	mc := malconv(b)
	raw := benchVictim(b)
	s.Engines.SetQuantMode(nn.QuantInt32)
	defer s.Engines.SetQuantMode(nn.QuantOff)
	mc.Score(raw) // build the quant tables outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.Score(raw)
	}
}

// BenchmarkStreamScore measures the O(chunk) streaming scorer on the same
// sample, fed in 4 KiB chunks.
func BenchmarkStreamScore(b *testing.B) {
	mc := malconv(b)
	raw := benchVictim(b)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := mc.NewStream()
		for off := 0; off < len(raw); off += 4096 {
			end := off + 4096
			if end > len(raw) {
				end = len(raw)
			}
			st.Feed(raw[off:end])
		}
		st.Finish()
	}
}

// BenchmarkInputGradient measures one embedding-space gradient (the unit of
// Eq. 3's optimization).
func BenchmarkInputGradient(b *testing.B) {
	mc := malconv(b)
	raw := benchVictim(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.InputGradient(raw, 0).Release()
	}
}

// BenchmarkShapleySample measures one exact section-Shapley computation.
func BenchmarkShapleySample(b *testing.B) {
	mc := malconv(b)
	raw := benchVictim(b)
	secs := []string{".text", ".data", ".rdata", ".idata"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shapley.SectionShapley(raw, secs, mc.Score); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMPassSingleAttack measures one full MPass attack round trip
// against MalConv.
func BenchmarkMPassSingleAttack(b *testing.B) {
	s := suite(b)
	mc := malconv(b)
	known := engine.GradientModels(s.Engines, mc.Name())
	victim := s.Victims[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig(known, s.MPassDonorPool)
		cfg.Seed = int64(i)
		atk, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := atk.Attack(victim.Raw, &core.CountingOracle{Oracle: core.DetectorOracle{D: mc}})
		if err != nil {
			b.Fatal(err)
		}
		if res.Success {
			b.ReportMetric(float64(res.Queries), "queries")
		}
	}
}

// BenchmarkGAMMASingleAttack measures one GAMMA attack for comparison.
func BenchmarkGAMMASingleAttack(b *testing.B) {
	s := suite(b)
	mc := malconv(b)
	victim := s.Victims[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		atk, err := attacks.NewGAMMA(attacks.Config{
			Donors: s.BaselineDonorPool, MaxQueries: 100, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := atk.Run(victim.Raw, &core.CountingOracle{Oracle: core.DetectorOracle{D: mc}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPackerUPX measures one UPX pack operation.
func BenchmarkPackerUPX(b *testing.B) {
	raw := benchVictim(b)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := packer.NewUPX().Pack(raw, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// parallelWorkerCounts are the pool sizes the parallel micro-benchmarks
// sweep; 0 resolves to GOMAXPROCS.
var parallelWorkerCounts = []int{1, 2, 4, 0}

// benchTrainingBatch builds one fixed minibatch of corpus samples.
func benchTrainingBatch(b *testing.B, n int) ([][]byte, []float64) {
	b.Helper()
	g := corpus.NewGenerator(505)
	batch := make([][]byte, n)
	ys := make([]float64, n)
	for i := range batch {
		if i%2 == 0 {
			batch[i] = g.Sample(corpus.Malware).Raw
			ys[i] = 1
		} else {
			batch[i] = g.Sample(corpus.Benign).Raw
		}
	}
	return batch, ys
}

// BenchmarkTrainBatchParallel measures the data-parallel minibatch step of
// the MalConv architecture across worker counts. Losses and weights are
// bit-identical at every count; only wall-clock should move.
func BenchmarkTrainBatchParallel(b *testing.B) {
	batch, ys := benchTrainingBatch(b, 16)
	for _, workers := range parallelWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			net, err := nn.NewConvNet(nn.ConvConfig{
				SeqLen: detect.SeqLen, EmbedDim: 4, Kernel: 8, Stride: 8, Filters: 8, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			net.Workers = workers
			opt := nn.NewAdam(5e-3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.TrainBatch(batch, ys, opt)
			}
			b.ReportMetric(float64(b.N*len(batch))/b.Elapsed().Seconds(), "samples/sec")
		})
	}
}

// BenchmarkShapleyParallel measures the pooled exact-Shapley subset
// enumeration (2^4 ablated renders + model evaluations per op) across
// worker counts, against the trained MalConv.
func BenchmarkShapleyParallel(b *testing.B) {
	mc := malconv(b)
	raw := benchVictim(b)
	secs := []string{".text", ".data", ".rdata", ".idata"}
	for _, workers := range parallelWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := shapley.SectionShapleyWorkers(raw, secs, mc.Score, workers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*float64(int(1)<<len(secs))/b.Elapsed().Seconds(), "subset-evals/sec")
		})
	}
}

// BenchmarkScoreBatch measures the batched scoring path on the trained
// MalConv — the unit the harness's victim selection and calibration use.
func BenchmarkScoreBatch(b *testing.B) {
	mc := malconv(b)
	raws, _ := benchTrainingBatch(b, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.ScoreBatch(raws)
	}
	b.ReportMetric(float64(b.N*len(raws))/b.Elapsed().Seconds(), "samples/sec")
}

// BenchmarkDetectorTraining measures training one MalConv from scratch.
func BenchmarkDetectorTraining(b *testing.B) {
	ds := corpus.MakeAugmentedDataset(55, 20, 20, 0.8)
	cfg := detect.DefaultTrainConfig()
	cfg.Epochs = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := detect.TrainMalConv(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
