package detect

import "testing"

func trainedSuite(t *testing.T) *Suite {
	mc, nng, lg, gcg := models(t)
	return &Suite{MalConv: mc, NonNeg: nng, LGBM: lg, MalGCG: gcg}
}

// TestSuiteKnownFor: MPass's known-model ensemble is the other
// differentiable offline models — never the target itself, and never
// LightGBM (paper footnote 6); an external target knows all three.
func TestSuiteKnownFor(t *testing.T) {
	s := trainedSuite(t)
	known := s.KnownFor("MalConv")
	if len(known) != 2 {
		t.Fatalf("KnownFor(MalConv) returned %d models, want 2", len(known))
	}
	for _, m := range known {
		if m.Name() == "MalConv" {
			t.Fatal("KnownFor included the target")
		}
	}
	if got := s.KnownFor("AV1"); len(got) != 3 {
		t.Fatalf("KnownFor(external) returned %d models, want 3", len(got))
	}
}
