package detect_test

import (
	"testing"

	"mpass/internal/detect"
	"mpass/internal/engine"
)

// TestSuiteKnownFor: a trained Suite, turned into an engine set the way
// eval.Setup and mpassd build theirs, yields MPass's known-model ensemble —
// the other differentiable offline models, never the target itself and never
// LightGBM (paper footnote 6); an external target knows all three.
func TestSuiteKnownFor(t *testing.T) {
	set, err := engine.FromSuite(detect.TrainedSuite(t))
	if err != nil {
		t.Fatalf("FromSuite: %v", err)
	}
	known := engine.GradientModels(set, "MalConv")
	if len(known) != 2 {
		t.Fatalf("GradientModels(MalConv) returned %d models, want 2", len(known))
	}
	for _, m := range known {
		if m.Name() == "MalConv" || m.Name() == "LightGBM" {
			t.Fatalf("GradientModels(MalConv) included %s", m.Name())
		}
	}
	if got := engine.GradientModels(set, "AV1"); len(got) != 3 {
		t.Fatalf("GradientModels(external) returned %d models, want 3", len(got))
	}
}
