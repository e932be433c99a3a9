package detect

import "mpass/internal/corpus"

// Suite holds the four offline models of §IV-A as training returns them.
// engine.FromSuite wraps it into the driver set that answers every question
// about membership, order and known models.
type Suite struct {
	MalConv *ConvDetector
	NonNeg  *ConvDetector
	LGBM    *GBDTDetector
	MalGCG  *ConvDetector
}

// TrainSuite trains the full offline suite (see TrainAll) into a Suite.
func TrainSuite(ds *corpus.Dataset, cfg TrainConfig) (*Suite, error) {
	s := &Suite{}
	var err error
	s.MalConv, s.NonNeg, s.LGBM, s.MalGCG, err = TrainAll(ds, cfg)
	if err != nil {
		return nil, err
	}
	return s, nil
}
