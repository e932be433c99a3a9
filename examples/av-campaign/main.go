// AV campaign: attacking the commercial-AV simulators and surviving their
// learning (§IV-B and §IV-C at example scale).
//
// It attacks each of the five AV simulators with MPass, then runs two
// weekly learning rounds in which the AVs mine byte signatures from every
// submitted AE, and shows that the shuffled, donor-unique MPass AEs keep
// bypassing — while an unshuffled variant of the same attack gets caught.
//
//	go run ./examples/av-campaign
package main

import (
	"fmt"
	"log"

	"mpass/internal/core"
	"mpass/internal/engine"
	"mpass/internal/eval"
)

func main() {
	log.SetFlags(0)

	cfg := eval.QuickConfig()
	cfg.Victims = 4
	fmt.Println("setting up suite (detectors + AV simulators)...")
	s, err := eval.Setup(cfg)
	if err != nil {
		log.Fatal(err)
	}

	attack := func(shuffle bool, avIdx int) (aes [][]byte) {
		target := s.AVs[avIdx]
		for i, v := range s.Victims {
			acfg := core.DefaultConfig(engine.GradientModels(s.Engines, target.Name()), s.MPassDonorPool)
			acfg.Seed = int64(i) * 101
			acfg.Shuffle = shuffle
			atk, err := core.New(acfg)
			if err != nil {
				log.Fatal(err)
			}
			res, err := atk.Attack(v.Raw, &core.CountingOracle{Oracle: target})
			if err != nil {
				log.Fatal(err)
			}
			if res.Success {
				aes = append(aes, res.AE)
			}
		}
		return aes
	}

	fmt.Printf("\n%-6s %s\n", "AV", "MPass successes")
	pools := make(map[string][][]byte)
	for i, a := range s.AVs {
		a.ResetSignatures()
		aes := attack(true, i)
		pools[a.Name()] = aes
		fmt.Printf("%-6s %d/%d victims\n", a.Name(), len(aes), len(s.Victims))
	}

	// Weekly learning on AV1: the vendor mines signatures from everything
	// submitted to it.
	target := s.AVs[0]
	shuffled := pools["AV1"]
	unshuffled := attack(false, 0)
	target.ResetSignatures()

	var union [][]byte
	union = append(union, shuffled...)
	union = append(union, unshuffled...)
	bypass := func(pool [][]byte) string {
		if len(pool) == 0 {
			return "n/a"
		}
		pass := 0
		for _, ae := range pool {
			if !target.Detected(ae) {
				pass++
			}
		}
		return fmt.Sprintf("%d/%d", pass, len(pool))
	}

	fmt.Printf("\nAV1 learning (mines %d submitted AEs per round):\n", len(union))
	fmt.Printf("%-8s %12s %14s %12s\n", "round", "shuffled", "unshuffled", "signatures")
	for round := 0; round < 3; round++ {
		if round > 0 {
			target.LearnRound(union, 30)
		}
		fmt.Printf("%-8d %12s %14s %12d\n",
			round, bypass(shuffled), bypass(unshuffled), target.SignatureCount())
	}
	fmt.Println("\nThe fixed recovery-stub loop of the unshuffled variant is minable;")
	fmt.Println("the shuffle strategy breaks every invariant window (§III-C).")
}
