// Command mpass-attack runs the full MPass pipeline end-to-end against one
// malware sample and one chosen target detector: train the detector zoo,
// select (or generate) a victim, run the hard-label black-box attack, and
// verify the adversarial example in the sandbox.
//
// Usage:
//
//	mpass-attack -target MalConv
//	mpass-attack -target AV3 -seed 9 -out ae.exe
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"mpass/internal/core"
	"mpass/internal/engine"
	"mpass/internal/eval"
	"mpass/internal/sandbox"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mpass-attack: ")
	target := flag.String("target", "MalConv", "target: MalConv, NonNeg, LightGBM, MalGCG, AV1..AV5")
	seed := flag.Int64("seed", 1, "seed for corpus, training, and attack")
	victim := flag.Int("victim", 0, "index of the victim sample")
	out := flag.String("out", "", "write the adversarial example here on success")
	workers := flag.Int("workers", 0, "worker-pool size for setup parallelism (0 = GOMAXPROCS)")
	flag.Parse()
	if *workers < 0 {
		log.Fatalf("workers must be >= 0 (0 = GOMAXPROCS), got %d", *workers)
	}

	cfg := eval.QuickConfig()
	cfg.Seed = *seed
	cfg.MaxQueries = 100
	cfg.Workers = *workers
	fmt.Println("building corpus and training detectors (one-time, ~1 min)...")
	suite, err := eval.Setup(cfg)
	if err != nil {
		log.Fatal(err)
	}

	var oracle core.Oracle
	if d, ok := suite.Engines.Get(*target); ok {
		oracle = core.DetectorOracle{D: d}
	}
	for _, a := range suite.AVs {
		if a.Name() == *target {
			oracle = a
		}
	}
	if oracle == nil {
		log.Fatalf("unknown target %q", *target)
	}
	if *victim < 0 || *victim >= len(suite.Victims) {
		log.Fatalf("victim index out of range (have %d victims)", len(suite.Victims))
	}
	v := suite.Victims[*victim]
	fmt.Printf("victim: %s (%d bytes), target: %s\n", v.Name, len(v.Raw), *target)

	acfg := core.DefaultConfig(engine.GradientModels(suite.Engines, *target), suite.MPassDonorPool)
	acfg.Seed = *seed
	attacker, err := core.New(acfg)
	if err != nil {
		log.Fatal(err)
	}
	counting := &core.CountingOracle{Oracle: oracle}
	start := time.Now()
	res, err := attacker.Attack(v.Raw, counting)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attack finished in %v: success=%v queries=%d rounds=%d\n",
		time.Since(start).Round(time.Millisecond), res.Success, res.Queries, res.Rounds)
	if !res.Success {
		os.Exit(1)
	}

	apr := 100 * float64(len(res.AE)-len(v.Raw)) / float64(len(v.Raw))
	fmt.Printf("AE size %d bytes (APR %.1f%%)\n", len(res.AE), apr)

	ok, err := sandbox.BehaviourPreserved(v.Raw, res.AE)
	if err != nil {
		log.Fatalf("sandbox: %v", err)
	}
	fmt.Printf("functionality preserved (API trace equality): %v\n", ok)

	if *out != "" {
		if err := os.WriteFile(*out, res.AE, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}
