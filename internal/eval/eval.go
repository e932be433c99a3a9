// Package eval is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§IV–§V) on the synthetic substrate:
//
//	Table I/II/III — ASR/AVQ/APR of {MPass, RLA, MAB, GAMMA, MalRNN} against
//	                 {MalConv, NonNeg, LightGBM, MalGCG}  (RunOfflineGrid)
//	§IV-A          — functionality verification of all AEs (RunFunctionalityCheck)
//	Figure 3       — ASR of the five attacks against AV1..AV5 (RunAVGrid)
//	Table IV       — UPX/PESpin/ASPack vs MPass on the AVs (RunPackerComparison)
//	Figure 4       — bypass rate under AV learning over five rounds (RunLearningCurve)
//	Table V        — Other-sec ablation (RunOtherSecAblation)
//	Table VI       — random-data ablation (RunRandomDataAblation)
//	§III-B finding — PEM section ranking (RunPEMRanking)
//	DESIGN ablation — known-ensemble size (RunEnsembleAblation)
//
// The suite owns the corpus, the trained detectors, the AV simulators, the
// donor pools, and the MalRNN language model, so one Setup call prepares
// every experiment.
package eval

import (
	"fmt"

	"mpass/internal/attacks"
	"mpass/internal/av"
	"mpass/internal/core"
	"mpass/internal/corpus"
	"mpass/internal/detect"
	"mpass/internal/engine"
	"mpass/internal/nn"
	"mpass/internal/parallel"
	"mpass/internal/sandbox"
)

// Config sizes the evaluation. Defaults reproduce the paper's shape at
// laptop scale; the paper's own sizes (2000 malware, 50k donors) are noted
// inline.
type Config struct {
	Seed int64
	// Corpus sizing (paper: 2000 malware + separate benign corpora).
	NumMalware, NumBenign int
	TrainFrac             float64
	// Victims is how many detected malware samples each experiment attacks.
	Victims int
	// MaxQueries is the per-sample budget (paper: 100).
	MaxQueries int
	// MPassDonors is MPass's benign-donor pool size (paper: 50,000).
	MPassDonors int
	// BaselineDonors is the baselines' payload pool size (their published
	// tools ship small fixed payload sets).
	BaselineDonors int
	// Train configures detector training.
	Train detect.TrainConfig
	// Workers bounds the suite's parallelism everywhere — concurrent model
	// training in Setup, batched scoring, and the per-victim attack fan-out
	// of runCell (0 = GOMAXPROCS, negative is invalid).
	Workers int
}

// Validate rejects configurations Setup cannot honor.
func (c Config) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("eval: Workers must be >= 0 (0 = GOMAXPROCS), got %d", c.Workers)
	}
	return nil
}

// DefaultConfig is the full benchmark configuration.
func DefaultConfig() Config {
	return Config{
		Seed:       1,
		NumMalware: 60, NumBenign: 60, TrainFrac: 0.67,
		Victims:     20,
		MaxQueries:  100,
		MPassDonors: 256, BaselineDonors: 6,
		Train: detect.DefaultTrainConfig(),
	}
}

// QuickConfig is a scaled-down configuration for tests.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.NumMalware, cfg.NumBenign = 40, 40
	cfg.TrainFrac = 0.75
	cfg.Victims = 6
	cfg.MaxQueries = 40
	cfg.MPassDonors = 64
	return cfg
}

// Suite bundles everything the experiments need.
type Suite struct {
	Cfg Config
	DS  *corpus.Dataset

	// Engines is the §IV-A offline-model set in paper order, built as
	// cmd/mpassd builds its own; target lists and known models come from it.
	Engines *engine.Set
	AVs     []*av.AV

	MPassDonorPool    [][]byte
	BaselineDonorPool [][]byte
	LM                *nn.ByteLM

	// Victims are test-split malware samples verified to (1) run with
	// malicious behaviour in the sandbox and (2) be detected by every
	// offline model — the paper's two sample requirements.
	Victims []*corpus.Sample
}

// Setup builds the corpus, trains all detectors and AV simulators, trains
// the MalRNN language model, and selects the victim set. The three model
// groups — offline detectors, AV simulators, MalRNN — share nothing but
// the read-only corpus and donor pools, so they train concurrently on the
// Workers pool; each group is internally concurrent as well.
func Setup(cfg Config) (*Suite, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Train.Workers == 0 {
		cfg.Train.Workers = cfg.Workers
	}
	s := &Suite{Cfg: cfg}
	s.DS = corpus.MakeAugmentedDataset(cfg.Seed, cfg.NumMalware, cfg.NumBenign, cfg.TrainFrac)

	g := corpus.NewGenerator(cfg.Seed + 77000)
	for i := 0; i < cfg.MPassDonors; i++ {
		s.MPassDonorPool = append(s.MPassDonorPool, g.Sample(corpus.Benign).Raw)
	}
	for i := 0; i < cfg.BaselineDonors; i++ {
		s.BaselineDonorPool = append(s.BaselineDonorPool, g.Sample(corpus.Benign).Raw)
	}

	// The donor programs are ordinary benign software; vendors have the
	// same files in their benign corpora (see av.SuiteConfig.ExtraBenignRef).
	extraRef := append(append([][]byte{}, s.MPassDonorPool...), s.BaselineDonorPool...)
	err := parallel.Do(cfg.Workers,
		func() (e error) {
			var offline *detect.Suite
			if offline, e = detect.TrainSuite(s.DS, cfg.Train); e == nil {
				s.Engines, e = engine.FromSuite(offline)
			}
			if e != nil {
				e = fmt.Errorf("eval: offline models: %w", e)
			}
			return
		},
		func() (e error) {
			s.AVs, e = av.NewSuite(s.DS, av.SuiteConfig{
				Train: cfg.Train, Seed: cfg.Seed + 9000, ExtraBenignRef: extraRef,
			})
			if e != nil {
				e = fmt.Errorf("eval: AV suite: %w", e)
			}
			return
		},
		func() (e error) {
			s.LM, e = attacks.TrainMalRNNLM(s.BaselineDonorPool, 3, cfg.Seed+5)
			if e != nil {
				e = fmt.Errorf("eval: MalRNN LM: %w", e)
			}
			return
		},
	)
	if err != nil {
		return nil, err
	}

	// Victim selection: sandbox-verified malicious behaviour + detected by
	// all offline models. Candidate filtering runs the sandbox per sample on
	// the pool; the detector checks then go through one batched scoring pass
	// per model over the surviving candidates.
	testMal := make([]*corpus.Sample, 0, len(s.DS.Test))
	for _, m := range s.DS.Test {
		if m.Family == corpus.Malware {
			testMal = append(testMal, m)
		}
	}
	behaving := make([]bool, len(testMal))
	parallel.ForEach(cfg.Workers, len(testMal), func(i int) {
		res, err := sandbox.Run(testMal[i].Raw)
		behaving[i] = err == nil && res.Halted() && hasSensitive(res.Trace)
	})
	var candidates []*corpus.Sample
	var raws [][]byte
	for i, ok := range behaving {
		if ok {
			candidates = append(candidates, testMal[i])
			raws = append(raws, testMal[i].Raw)
		}
	}
	detected := make([]bool, len(candidates))
	for i := range detected {
		detected[i] = true
	}
	for _, d := range s.Engines.Drivers() {
		for i, flagged := range detect.LabelAll(d, raws, cfg.Workers) {
			detected[i] = detected[i] && flagged
		}
	}
	for i, m := range candidates {
		if detected[i] {
			s.Victims = append(s.Victims, m)
		}
	}
	if len(s.Victims) == 0 {
		return nil, fmt.Errorf("eval: no eligible victims")
	}
	if len(s.Victims) > cfg.Victims {
		s.Victims = s.Victims[:cfg.Victims]
	}
	return s, nil
}

// model resolves a named offline model, failing when the set lacks it.
func (s *Suite) model(name string) (engine.Driver, error) {
	d, ok := s.Engines.Get(name)
	if !ok {
		return nil, fmt.Errorf("eval: no %s engine in the model set", name)
	}
	return d, nil
}

func hasSensitive(tr sandbox.Trace) bool {
	for _, e := range tr {
		if corpus.IsSensitive(e.API) {
			return true
		}
	}
	return false
}

// AttackFactory builds per-victim attack instances (attacks keep per-run
// RNG state, so each victim gets a fresh instance seeded deterministically).
type AttackFactory struct {
	Name string
	New  func(seed int64) (attacks.Attack, error)
}

// Factories returns the five attacks of Tables I–III, configured for the
// named target.
func (s *Suite) Factories(target string) []AttackFactory {
	base := attacks.Config{Donors: s.BaselineDonorPool, MaxQueries: s.Cfg.MaxQueries}
	return []AttackFactory{
		{Name: "MPass", New: func(seed int64) (attacks.Attack, error) {
			cfg := core.DefaultConfig(engine.GradientModels(s.Engines, target), s.MPassDonorPool)
			cfg.MaxQueries = s.Cfg.MaxQueries
			cfg.Seed = seed
			atk, err := core.New(cfg)
			if err != nil {
				return nil, err
			}
			return attacks.NewMPass(atk), nil
		}},
		{Name: "RLA", New: func(seed int64) (attacks.Attack, error) {
			c := base
			c.Seed = seed
			return attacks.NewRLA(c)
		}},
		{Name: "MAB", New: func(seed int64) (attacks.Attack, error) {
			c := base
			c.Seed = seed
			return attacks.NewMAB(c)
		}},
		{Name: "GAMMA", New: func(seed int64) (attacks.Attack, error) {
			c := base
			c.Seed = seed
			return attacks.NewGAMMA(c)
		}},
		{Name: "MalRNN", New: func(seed int64) (attacks.Attack, error) {
			c := base
			c.Seed = seed
			return attacks.NewMalRNN(c, s.LM)
		}},
	}
}

// Metrics are the paper's three comparison measures (§IV-A).
type Metrics struct {
	Success int
	Total   int
	Queries int     // summed over all victims (Q_all)
	SumAPR  float64 // summed over successful AEs
}

// ASR is the attack success rate in percent.
func (m *Metrics) ASR() float64 {
	if m.Total == 0 {
		return 0
	}
	return 100 * float64(m.Success) / float64(m.Total)
}

// AVQ is Q_all / N, the paper's average-query metric.
func (m *Metrics) AVQ() float64 {
	if m.Total == 0 {
		return 0
	}
	return float64(m.Queries) / float64(m.Total)
}

// APR is the mean file-size increment of successful AEs, in percent.
func (m *Metrics) APR() float64 {
	if m.Success == 0 {
		return 0
	}
	return m.SumAPR / float64(m.Success)
}

// Cell is one (attack, target) grid entry.
type Cell struct {
	Attack string
	Target string
	Metrics
	// AEs holds (victim index, AE bytes) for every success; consumed by
	// the functionality check and the AV-learning experiment.
	AEs []VictimAE
}

// VictimAE pairs a successful adversarial example with its victim.
type VictimAE struct {
	VictimIdx int
	AE        []byte
}

// runCell attacks every victim with per-victim instances of one attack
// against one oracle, fanned out on the Workers pool. (The pool helper
// keeps at most Workers attacks in flight; the previous hand-rolled
// semaphore spawned every victim's goroutine up front.)
func (s *Suite) runCell(factory AttackFactory, oracle core.Oracle, targetName string) (*Cell, error) {
	cell := &Cell{Attack: factory.Name, Target: targetName}
	type out struct {
		idx int
		res *core.Result
		err error
	}
	results := make([]out, len(s.Victims))
	parallel.ForEach(s.Cfg.Workers, len(s.Victims), func(i int) {
		atk, err := factory.New(s.Cfg.Seed + int64(i)*7919)
		if err != nil {
			results[i] = out{idx: i, err: err}
			return
		}
		res, err := atk.Run(s.Victims[i].Raw, &core.CountingOracle{Oracle: oracle})
		results[i] = out{idx: i, res: res, err: err}
	})

	for _, r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("eval: %s vs %s, victim %d: %w",
				factory.Name, targetName, r.idx, r.err)
		}
		cell.Total++
		cell.Queries += r.res.Queries
		if r.res.Success {
			cell.Success++
			orig := len(s.Victims[r.idx].Raw)
			cell.SumAPR += 100 * float64(len(r.res.AE)-orig) / float64(orig)
			cell.AEs = append(cell.AEs, VictimAE{VictimIdx: r.idx, AE: r.res.AE})
		}
	}
	return cell, nil
}
