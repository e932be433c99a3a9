// Command mpass-train builds the synthetic corpus and trains the full
// detector zoo: the four offline models of §IV-A (MalConv, NonNeg,
// LightGBM, MalGCG) and the five commercial-AV simulators of §IV-B. It
// reports per-model test accuracy and calibrated thresholds.
//
// Experiment binaries retrain deterministically from the seed, so they never
// read stale models; the serving daemon is the exception — it wants a warm
// start, so `-out-dir models/` persists the offline suite as per-engine
// versioned envelopes (one file per detector, each carrying a
// content-addressed version) for `mpassd -models models/` to load in
// milliseconds — the same format the hot-reload endpoint swaps in without a
// restart.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"mpass/internal/av"
	"mpass/internal/corpus"
	"mpass/internal/detect"
	"mpass/internal/engine"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mpass-train: ")
	seed := flag.Int64("seed", 1, "corpus and training seed")
	nMal := flag.Int("malware", 60, "malware samples in the corpus")
	nBen := flag.Int("benign", 60, "benign samples in the corpus")
	workers := flag.Int("workers", 0, "worker-pool size for concurrent training (0 = GOMAXPROCS)")
	outDir := flag.String("out-dir", "", "write per-engine versioned envelopes here (one .engine.gob per detector) for mpassd -models / hot reload")
	flag.Parse()
	if *workers < 0 {
		log.Fatalf("workers must be >= 0 (0 = GOMAXPROCS), got %d", *workers)
	}

	start := time.Now()
	ds := corpus.MakeAugmentedDataset(*seed, *nMal, *nBen, 0.67)
	fmt.Printf("corpus: %d train (with augmented variants), %d test\n",
		len(ds.Train), len(ds.Test))

	cfg := detect.DefaultTrainConfig()
	cfg.Seed = *seed
	cfg.Workers = *workers
	suite, err := detect.TrainSuite(ds, cfg)
	if err != nil {
		log.Fatal(err)
	}
	set, err := engine.FromSuite(suite)
	if err != nil {
		log.Fatal(err)
	}
	if *outDir != "" {
		if err := engine.SaveDir(*outDir, set); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved %d engine envelopes to %s/ (set %s)\n", set.Len(), *outDir, set.Version())
		for _, d := range set.Drivers() {
			fmt.Printf("  %-10s %s\n", d.Name(), d.Version())
		}
	}

	fmt.Printf("\n%-10s %10s %10s\n", "model", "test acc", "threshold")
	for _, d := range set.Drivers() {
		fmt.Printf("%-10s %9.1f%% %10.3f\n", d.Name(), 100*detect.Accuracy(d, ds.Test), d.Threshold())
	}

	avs, err := av.NewSuite(ds, av.SuiteConfig{Train: cfg, Seed: *seed + 9000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-10s %10s %10s\n", "AV", "detect", "false pos")
	for _, a := range avs {
		var det, fp, nm, nb int
		for _, s := range ds.Test {
			if s.Family == corpus.Malware {
				nm++
				if a.Detected(s.Raw) {
					det++
				}
			} else {
				nb++
				if a.Detected(s.Raw) {
					fp++
				}
			}
		}
		fmt.Printf("%-10s %6d/%-3d %6d/%-3d\n", a.Name(), det, nm, fp, nb)
	}
	fmt.Printf("\ntrained everything in %v\n", time.Since(start).Round(time.Millisecond))
}
