package detect

import "testing"

// TrainedSuite hands the package's shared trained models, as a Suite, to the
// external tests in package detect_test.
func TrainedSuite(t *testing.T) *Suite {
	mc, nng, lg, gcg := models(t)
	return &Suite{MalConv: mc, NonNeg: nng, LGBM: lg, MalGCG: gcg}
}
