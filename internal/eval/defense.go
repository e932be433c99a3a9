package eval

import (
	"fmt"
	"math/rand"

	"mpass/internal/attacks"
	"mpass/internal/core"
	"mpass/internal/corpus"
	"mpass/internal/detect"
	"mpass/internal/engine"
)

// ATResult reports the §VI "Adversarial training" experiment: the paper
// retrains a detector on a 50/50 mix of MPass AEs and clean malware and
// finds the attack's success rate suppressed by less than 10 points.
type ATResult struct {
	// BaselineASR is MPass's ASR against the originally trained model.
	BaselineASR float64
	// ATASR is MPass's ASR against the adversarially trained model.
	ATASR float64
	// CleanAccBefore/After track the collateral cost on clean accuracy.
	CleanAccBefore, CleanAccAfter float64
}

// Suppression is the ASR drop in percentage points.
func (r *ATResult) Suppression() float64 { return r.BaselineASR - r.ATASR }

// RunAdversarialTraining reproduces the classic-AT probe of §VI against
// MalConv: generate MPass AEs for the training-split malware, retrain the
// model with those AEs mixed 50/50 into the malware class, and re-attack.
// The paper's observation — and this harness's result — is that the AE
// space reachable by MPass (fresh donors, fresh shuffles, re-optimized
// perturbations) is far larger than any finite AE sample, so AT suppresses
// the attack by only a few points.
func (s *Suite) RunAdversarialTraining() (*ATResult, error) {
	malconv, err := s.model("MalConv")
	if err != nil {
		return nil, err
	}
	res := &ATResult{CleanAccBefore: 100 * detect.Accuracy(malconv, s.DS.Test)}

	// Baseline ASR on the victim set.
	base, err := s.mpassASR(malconv, s.Cfg.Seed+41000)
	if err != nil {
		return nil, err
	}
	res.BaselineASR = base

	// Generate AEs against the *current* model for training malware.
	atkCfg := core.DefaultConfig(engine.GradientModels(s.Engines, malconv.Name()), s.MPassDonorPool)
	atkCfg.MaxQueries = 20
	atkCfg.Seed = s.Cfg.Seed + 42000
	attacker, err := core.New(atkCfg)
	if err != nil {
		return nil, err
	}
	var aes []*corpus.Sample
	for _, m := range s.DS.Train {
		if m.Family != corpus.Malware {
			continue
		}
		r, err := attacker.Attack(m.Raw, &core.CountingOracle{Oracle: core.DetectorOracle{D: malconv}})
		if err != nil {
			return nil, fmt.Errorf("eval: AT AE generation: %w", err)
		}
		if r.Success {
			aes = append(aes, &corpus.Sample{
				Name: "ae-" + m.Name, Family: corpus.Malware, Raw: r.AE,
			})
		}
	}
	if len(aes) == 0 {
		return nil, fmt.Errorf("eval: no AEs for adversarial training")
	}

	// Retrain with the 50/50 AE/clean malware mix (Szegedy-style AT).
	mixed := &corpus.Dataset{Test: s.DS.Test}
	mixed.Train = append(mixed.Train, s.DS.Train...)
	mixed.Train = append(mixed.Train, aes...)
	tc := s.Cfg.Train
	tc.Seed += 7
	hardened, err := detect.TrainMalConv(mixed, tc)
	if err != nil {
		return nil, err
	}
	res.CleanAccAfter = 100 * detect.Accuracy(hardened, s.DS.Test)

	after, err := s.mpassASR(hardened, s.Cfg.Seed+43000)
	if err != nil {
		return nil, err
	}
	res.ATASR = after
	return res, nil
}

// mpassASR attacks every victim with fresh MPass instances and returns ASR.
func (s *Suite) mpassASR(target detect.Detector, seed int64) (float64, error) {
	factory := AttackFactory{Name: "MPass", New: func(sd int64) (attacks.Attack, error) {
		cfg := core.DefaultConfig(engine.GradientModels(s.Engines, target.Name()), s.MPassDonorPool)
		cfg.MaxQueries = s.Cfg.MaxQueries
		cfg.Seed = sd + seed
		atk, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		return attacks.NewMPass(atk), nil
	}}
	cell, err := s.runCell(factory, core.DetectorOracle{D: target}, target.Name())
	if err != nil {
		return 0, err
	}
	return cell.ASR(), nil
}

// RunGradientATProbe demonstrates the paper's first §VI argument: AT with
// *uniform gradient perturbations* (PGD-style byte noise that ignores
// functionality constraints) produces training points outside the
// distribution of real function-preserving AEs, so it does not help
// against MPass. The probe retrains MalConv on noise-perturbed malware and
// reports the (non-)suppression.
func (s *Suite) RunGradientATProbe() (*ATResult, error) {
	malconv, err := s.model("MalConv")
	if err != nil {
		return nil, err
	}
	res := &ATResult{CleanAccBefore: 100 * detect.Accuracy(malconv, s.DS.Test)}
	base, err := s.mpassASR(malconv, s.Cfg.Seed+44000)
	if err != nil {
		return nil, err
	}
	res.BaselineASR = base

	// "Gradient AE" stand-ins: malware with uniform random byte flips —
	// what unconstrained PGD in byte space amounts to after projection.
	rng := rand.New(rand.NewSource(s.Cfg.Seed + 45000))
	var noisy []*corpus.Sample
	for _, m := range s.DS.Train {
		if m.Family != corpus.Malware {
			continue
		}
		raw := append([]byte(nil), m.Raw...)
		flips := len(raw) / 10
		for i := 0; i < flips; i++ {
			raw[rng.Intn(len(raw))] = byte(rng.Intn(256))
		}
		noisy = append(noisy, &corpus.Sample{Name: "pgd-" + m.Name, Family: corpus.Malware, Raw: raw})
	}
	mixed := &corpus.Dataset{Test: s.DS.Test}
	mixed.Train = append(mixed.Train, s.DS.Train...)
	mixed.Train = append(mixed.Train, noisy...)
	tc := s.Cfg.Train
	tc.Seed += 11
	hardened, err := detect.TrainMalConv(mixed, tc)
	if err != nil {
		return nil, err
	}
	res.CleanAccAfter = 100 * detect.Accuracy(hardened, s.DS.Test)
	after, err := s.mpassASR(hardened, s.Cfg.Seed+46000)
	if err != nil {
		return nil, err
	}
	res.ATASR = after
	return res, nil
}

// RenderAT formats a §VI defense-probe result.
func RenderAT(title string, r *ATResult) string {
	return fmt.Sprintf(
		"%s\n  MPass ASR before: %5.1f%%   after: %5.1f%%   suppression: %.1f points\n  clean accuracy  : %5.1f%% -> %5.1f%%\n",
		title, r.BaselineASR, r.ATASR, r.Suppression(), r.CleanAccBefore, r.CleanAccAfter)
}

// Interface check: the hardened model still satisfies GradientModel.
var _ detect.GradientModel = (*detect.ConvDetector)(nil)
