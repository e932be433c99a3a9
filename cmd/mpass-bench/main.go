// Command mpass-bench regenerates every table and figure of the paper's
// evaluation on the synthetic substrate and prints them in order:
//
//	PEM ranking (§III-B), Tables I–III, the functionality check (§IV-A),
//	Figure 3, Table IV, Figure 4, Tables V–VI, and the DESIGN.md ablations
//	(ensemble size, shuffle strategy).
//
// Use -quick for a fast smoke run; the default configuration is the one
// EXPERIMENTS.md records.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"mpass/internal/eval"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mpass-bench: ")
	quick := flag.Bool("quick", false, "scaled-down configuration")
	seed := flag.Int64("seed", 1, "global seed")
	victims := flag.Int("victims", 0, "override victim count")
	workers := flag.Int("workers", 0, "worker-pool size for training, scoring, and attacks (0 = GOMAXPROCS)")
	outPath := flag.String("out", "", "also write the report to this file")
	csvDir := flag.String("csv", "", "also export grids as CSV into this directory")
	flag.Parse()

	cfg := eval.DefaultConfig()
	if *quick {
		cfg = eval.QuickConfig()
	}
	cfg.Seed = *seed
	if *victims > 0 {
		cfg.Victims = *victims
	}
	cfg.Workers = *workers
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	start := time.Now()
	fmt.Fprintf(out, "mpass-bench: seed=%d victims=%d queries=%d\n",
		cfg.Seed, cfg.Victims, cfg.MaxQueries)
	fmt.Fprintln(out, "setting up suite (corpus + 4 offline models + 5 AVs + LM)...")
	s, err := eval.Setup(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(out, "suite ready in %v; %d eligible victims\n\n",
		time.Since(start).Round(time.Second), len(s.Victims))

	section := func(name string, f func() error) {
		t0 := time.Now()
		fmt.Fprintf(out, "==== %s ====\n", name)
		if err := f(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(out, "(%v)\n\n", time.Since(t0).Round(time.Second))
	}

	section("PEM ranking (§III-B)", func() error {
		r, err := s.RunPEMRanking(5)
		if err != nil {
			return err
		}
		fmt.Fprint(out, eval.RenderPEM(r))
		frac, err := s.SectionStats()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "code+data byte share of victims: %.0f%% (paper §I: often >60%%)\n", 100*frac)
		return nil
	})

	exportCSV := func(name string, g *eval.Grid) {
		if *csvDir == "" {
			return
		}
		f, err := os.Create(*csvDir + "/" + name + ".csv")
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := g.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
	}

	var offline *eval.Grid
	section("Tables I-III: offline models", func() error {
		var err error
		offline, err = s.RunOfflineGrid()
		if err != nil {
			return err
		}
		exportCSV("offline_grid", offline)
		fmt.Fprint(out, offline.RenderTable("TABLE I", eval.MetricASR))
		fmt.Fprintln(out)
		fmt.Fprint(out, offline.RenderTable("TABLE II", eval.MetricAVQ))
		fmt.Fprintln(out)
		fmt.Fprint(out, offline.RenderTable("TABLE III", eval.MetricAPR))
		return nil
	})

	section("§IV-A functionality check", func() error {
		reports, err := s.RunFunctionalityCheck(offline)
		if err != nil {
			return err
		}
		fmt.Fprint(out, eval.RenderFunctionality(reports))
		return nil
	})

	var avGrid *eval.Grid
	section("Figure 3: commercial ML AVs", func() error {
		var err error
		avGrid, err = s.RunAVGrid()
		if err != nil {
			return err
		}
		exportCSV("av_grid", avGrid)
		fmt.Fprint(out, avGrid.RenderTable("FIGURE 3", eval.MetricASR))
		return nil
	})

	section("Table IV: obfuscators vs MPass", func() error {
		mpassRow := make(map[string]*eval.Cell)
		for _, tgt := range avGrid.Targets {
			if c := avGrid.Cell("MPass", tgt); c != nil {
				mpassRow[tgt] = c
			}
		}
		grid, err := s.RunPackerComparison(mpassRow)
		if err != nil {
			return err
		}
		fmt.Fprint(out, grid.RenderTable("TABLE IV", eval.MetricASR))
		return nil
	})

	section("Figure 4: AV learning over 5 rounds", func() error {
		for _, avName := range []string{"AV1", "AV2", "AV3", "AV4", "AV5"} {
			curves, err := s.RunLearningCurve(avGrid, avName, 5)
			if err != nil {
				return err
			}
			fmt.Fprint(out, eval.RenderCurves(avName, curves))
			fmt.Fprintln(out)
		}
		return nil
	})

	// MPass's comparison row in Tables V and VI is its Figure-3 result
	// (same settings, code+data positions), as in the paper.
	mergeMPass := func(grid *eval.Grid) {
		for _, tgt := range avGrid.Targets {
			if c := avGrid.Cell("MPass", tgt); c != nil {
				grid.Put(c)
			}
		}
	}

	section("Table V: Other-sec ablation", func() error {
		grid, err := s.RunOtherSecAblation()
		if err != nil {
			return err
		}
		mergeMPass(grid)
		fmt.Fprint(out, grid.RenderTable("TABLE V", eval.MetricASR))
		return nil
	})

	section("Table VI: random-data ablation", func() error {
		grid, err := s.RunRandomDataAblation()
		if err != nil {
			return err
		}
		mergeMPass(grid)
		fmt.Fprint(out, grid.RenderTable("TABLE VI", eval.MetricASR))
		return nil
	})

	section("Ablation: known-ensemble size (DESIGN.md)", func() error {
		grid, err := s.RunEnsembleAblation()
		if err != nil {
			return err
		}
		fmt.Fprint(out, grid.RenderTable("ENSEMBLE ABLATION (target LightGBM)", eval.MetricASR))
		return nil
	})

	section("§VI defense probe: adversarial training", func() error {
		at, err := s.RunAdversarialTraining()
		if err != nil {
			return err
		}
		fmt.Fprint(out, eval.RenderAT("classic AT (50/50 MPass-AE/clean malware mix)", at))
		pgd, err := s.RunGradientATProbe()
		if err != nil {
			return err
		}
		fmt.Fprint(out, eval.RenderAT("gradient-noise AT (unconstrained PGD stand-in)", pgd))
		return nil
	})

	section("Ablation: shuffle strategy under AV learning (DESIGN.md)", func() error {
		with, without, err := s.RunShuffleAblation(5)
		if err != nil {
			return err
		}
		fmt.Fprint(out, eval.RenderCurves("AV1 (MPass with shuffle)", eval.LearningCurves{"MPass": with}))
		fmt.Fprint(out, eval.RenderCurves("AV1 (MPass without shuffle)", eval.LearningCurves{"MPass": without}))
		return nil
	})

	fmt.Fprintf(out, "total wall time %v\n", time.Since(start).Round(time.Second))
}
