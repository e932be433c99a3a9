package eval

import (
	"fmt"
	"math/rand"

	"mpass/internal/attacks"
	"mpass/internal/av"
	"mpass/internal/core"
	"mpass/internal/engine"
	"mpass/internal/packer"
	"mpass/internal/pefile"
	"mpass/internal/shapley"
)

// RunPackerComparison reproduces Table IV: UPX, PESpin, and ASPack against
// the five AVs, with MPass's Figure-3 row for comparison. A packer "succeeds"
// on a sample when its packed output evades the AV (packers are one-shot —
// no query loop).
func (s *Suite) RunPackerComparison(mpassRow map[string]*Cell) (*Grid, error) {
	grid := newGrid()
	for _, p := range packer.All() {
		for _, target := range s.AVs {
			target.ResetSignatures()
			cell := &Cell{Attack: p.Name(), Target: target.Name()}
			rng := rand.New(rand.NewSource(s.Cfg.Seed + int64(len(p.Name()))))
			for _, v := range s.Victims {
				packed, err := p.Pack(v.Raw, rng)
				if err != nil {
					return nil, fmt.Errorf("eval: %s: %w", p.Name(), err)
				}
				cell.Total++
				cell.Queries++
				if !target.Detected(packed) {
					cell.Success++
					cell.SumAPR += 100 * float64(len(packed)-len(v.Raw)) / float64(len(v.Raw))
					cell.AEs = append(cell.AEs, VictimAE{VictimIdx: cell.Total - 1, AE: packed})
				}
			}
			grid.put(cell)
		}
	}
	// MPass's row comes from the Figure-3 grid so the comparison uses the
	// same AEs, as the paper does.
	for tgt, cell := range mpassRow {
		c := *cell
		c.Target = tgt
		grid.put(&c)
	}
	return grid, nil
}

// positionAblationGrid runs an MPass variant (configured by mutate) against
// the five AVs — shared by the Table V and Table VI ablations.
func (s *Suite) positionAblationGrid(name string, mutate func(*core.Config)) (*Grid, error) {
	grid := newGrid()
	for _, target := range s.AVs {
		target.ResetSignatures()
		factory := AttackFactory{Name: name, New: func(seed int64) (attacks.Attack, error) {
			cfg := core.DefaultConfig(engine.GradientModels(s.Engines, target.Name()), s.MPassDonorPool)
			cfg.MaxQueries = s.Cfg.MaxQueries
			cfg.Seed = seed
			mutate(&cfg)
			atk, err := core.New(cfg)
			if err != nil {
				return nil, err
			}
			return attacks.NewMPass(atk), nil
		}}
		cell, err := s.runCell(factory, target, target.Name())
		if err != nil {
			return nil, err
		}
		grid.put(cell)
	}
	return grid, nil
}

// RunOtherSecAblation reproduces Table V: the Other-sec setting encodes
// only non-code/data sections (all other attack machinery unchanged).
func (s *Suite) RunOtherSecAblation() (*Grid, error) {
	return s.positionAblationGrid("Other-sec", func(cfg *core.Config) {
		cfg.CriticalSections = []string{".rdata", ".idata", ".rsrc"}
	})
}

// RunRandomDataAblation reproduces Table VI: random bytes at the same
// modification positions, no optimization.
func (s *Suite) RunRandomDataAblation() (*Grid, error) {
	return s.positionAblationGrid("Random data", func(cfg *core.Config) {
		cfg.Fill = core.FillRandom
		cfg.SkipOptimize = true
	})
}

// RunEnsembleAblation is the DESIGN.md design-choice ablation: MPass with a
// single known model versus the full ensemble, attacking LightGBM (the one
// target that is never in the ensemble, so transfer quality is isolated).
func (s *Suite) RunEnsembleAblation() (*Grid, error) {
	lgbm, err := s.model("LightGBM")
	if err != nil {
		return nil, err
	}
	grid := newGrid()
	oracle := core.DetectorOracle{D: lgbm}
	for _, v := range []struct {
		name string
		n    int
	}{{"ensemble-1", 1}, {"ensemble-all", 3}} {
		v := v
		factory := AttackFactory{Name: v.name, New: func(seed int64) (attacks.Attack, error) {
			known := engine.GradientModels(s.Engines, lgbm.Name())
			if len(known) > v.n {
				known = known[:v.n]
			}
			cfg := core.DefaultConfig(known, s.MPassDonorPool)
			cfg.MaxQueries = s.Cfg.MaxQueries
			cfg.Seed = seed
			atk, err := core.New(cfg)
			if err != nil {
				return nil, err
			}
			return attacks.NewMPass(atk), nil
		}}
		cell, err := s.runCell(factory, oracle, lgbm.Name())
		if err != nil {
			return nil, err
		}
		grid.put(cell)
	}
	return grid, nil
}

// RunShuffleAblation contrasts MPass with and without the shuffle strategy
// under AV learning — the design choice Figure 4 rests on. It returns
// bypass-rate curves for both variants on one AV.
func (s *Suite) RunShuffleAblation(rounds int) (withShuffle, withoutShuffle []float64, err error) {
	target := s.AVs[0]
	run := func(shuffle bool) ([]float64, error) {
		target.ResetSignatures()
		factory := AttackFactory{Name: "MPass", New: func(seed int64) (attacks.Attack, error) {
			cfg := core.DefaultConfig(engine.GradientModels(s.Engines, target.Name()), s.MPassDonorPool)
			cfg.MaxQueries = s.Cfg.MaxQueries
			cfg.Seed = seed
			cfg.Shuffle = shuffle
			atk, err := core.New(cfg)
			if err != nil {
				return nil, err
			}
			return attacks.NewMPass(atk), nil
		}}
		cell, err := s.runCell(factory, target, target.Name())
		if err != nil {
			return nil, err
		}
		var pool [][]byte
		for _, ae := range cell.AEs {
			pool = append(pool, ae.AE)
		}
		return s.learningCurve(target, map[string][][]byte{"MPass": pool}, rounds)["MPass"], nil
	}
	if withShuffle, err = run(true); err != nil {
		return nil, nil, err
	}
	if withoutShuffle, err = run(false); err != nil {
		return nil, nil, err
	}
	return withShuffle, withoutShuffle, nil
}

// PEMRanking is the §III-B explainability result.
type PEMRanking struct {
	Result *shapley.Result
	// Top2OverTop3 is the mean ratio between the 2nd and 3rd ranked
	// sections' Shapley values across models (paper: 1.3–6.0×).
	Top2OverTop3 float64
}

// RunPEMRanking runs Algorithm 1 over the known models and a sample of the
// victim malware.
func (s *Suite) RunPEMRanking(nSamples int) (*PEMRanking, error) {
	if nSamples > len(s.Victims) {
		nSamples = len(s.Victims)
	}
	var raws [][]byte
	for _, v := range s.Victims[:nSamples] {
		raws = append(raws, v.Raw)
	}
	models := make([]shapley.Model, s.Engines.Len())
	for i, d := range s.Engines.Drivers() {
		models[i] = d
	}
	res, err := shapley.PEM(models, raws, shapley.Config{TopH: 10, TopK: 3, Workers: s.Cfg.Workers})
	if err != nil {
		return nil, err
	}
	// Fold in model order: ranging over the PerModel map would reorder the
	// float sum from run to run.
	var ratioSum float64
	var n int
	for _, m := range models {
		if ranked := res.PerModel[m.Name()]; len(ranked) >= 3 && ranked[2].Value > 1e-9 {
			ratioSum += ranked[1].Value / ranked[2].Value
			n++
		}
	}
	out := &PEMRanking{Result: res}
	if n > 0 {
		out.Top2OverTop3 = ratioSum / float64(n)
	}
	return out, nil
}

// LearningCurves maps attack -> per-round bypass rate (Figure 4, one AV).
type LearningCurves map[string][]float64

// RunLearningCurve reproduces Figure 4 for one AV: the successful AEs from
// the Figure-3 grid are re-submitted after each weekly learning round. The
// AV learns from the union of everything submitted to it (it cannot tell
// attacks apart), and each curve tracks its own attack's surviving AEs.
func (s *Suite) RunLearningCurve(avGrid *Grid, avName string, rounds int) (LearningCurves, error) {
	var target *av.AV
	for _, a := range s.AVs {
		if a.Name() == avName {
			target = a
			break
		}
	}
	if target == nil {
		return nil, fmt.Errorf("eval: unknown AV %q", avName)
	}
	pools := make(map[string][][]byte)
	for _, atk := range avGrid.Attacks {
		cell := avGrid.Cell(atk, avName)
		if cell == nil {
			continue
		}
		for _, ae := range cell.AEs {
			pools[atk] = append(pools[atk], ae.AE)
		}
	}
	target.ResetSignatures()
	return s.learningCurve(target, pools, rounds), nil
}

// learningCurve drives the weekly rounds. Round 0 is pre-learning (100% by
// construction); before each later round the AV mines the union pool.
func (s *Suite) learningCurve(target *av.AV, pools map[string][][]byte, rounds int) LearningCurves {
	var union [][]byte
	for _, pool := range pools {
		union = append(union, pool...)
	}
	curves := make(LearningCurves)
	for atk := range pools {
		curves[atk] = make([]float64, 0, rounds)
	}
	for r := 0; r < rounds; r++ {
		if r > 0 {
			target.LearnRound(union, 30)
		}
		for atk, pool := range pools {
			if len(pool) == 0 {
				curves[atk] = append(curves[atk], 0)
				continue
			}
			pass := 0
			for _, ae := range pool {
				if !target.Detected(ae) {
					pass++
				}
			}
			curves[atk] = append(curves[atk], 100*float64(pass)/float64(len(pool)))
		}
	}
	return curves
}

// SectionStats summarizes how much of the victims' byte mass lives in code
// and data sections — the §I claim that they are "often more than 60%".
func (s *Suite) SectionStats() (codeDataFraction float64, err error) {
	var cd, total float64
	for _, v := range s.Victims {
		f, err := pefile.Parse(v.Raw)
		if err != nil {
			return 0, err
		}
		total += float64(len(v.Raw))
		for _, sec := range f.Sections {
			if sec.IsCode() || sec.Characteristics&pefile.SecInitializedData != 0 {
				cd += float64(len(sec.Data))
			}
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("eval: no victims")
	}
	return cd / total, nil
}
