package eval

import (
	"fmt"

	"mpass/internal/core"
	"mpass/internal/sandbox"
)

// Grid holds one experiment's attack × target matrix.
type Grid struct {
	Attacks []string
	Targets []string
	Cells   map[string]map[string]*Cell // attack -> target -> cell
}

func newGrid() *Grid { return &Grid{Cells: make(map[string]map[string]*Cell)} }

// Put inserts (or replaces) a cell, registering its attack and target rows.
// It is exported so report writers can merge reference rows across grids
// (e.g., MPass's Figure-3 row into the Table V/VI ablation grids).
func (g *Grid) Put(c *Cell) { g.put(c) }

func (g *Grid) put(c *Cell) {
	if g.Cells[c.Attack] == nil {
		g.Cells[c.Attack] = make(map[string]*Cell)
		g.Attacks = append(g.Attacks, c.Attack)
	}
	if _, seen := g.Cells[c.Attack][c.Target]; !seen {
		found := false
		for _, t := range g.Targets {
			if t == c.Target {
				found = true
				break
			}
		}
		if !found {
			g.Targets = append(g.Targets, c.Target)
		}
	}
	g.Cells[c.Attack][c.Target] = c
}

// Cell returns the cell for (attack, target), or nil.
func (g *Grid) Cell(attack, target string) *Cell {
	if m, ok := g.Cells[attack]; ok {
		return m[target]
	}
	return nil
}

// RunOfflineGrid runs all five attacks against the four offline models —
// the shared data behind Tables I (ASR), II (AVQ), and III (APR).
func (s *Suite) RunOfflineGrid() (*Grid, error) {
	grid := newGrid()
	for _, target := range s.Engines.Drivers() {
		oracle := core.DetectorOracle{D: target}
		for _, f := range s.Factories(target.Name()) {
			cell, err := s.runCell(f, oracle, target.Name())
			if err != nil {
				return nil, err
			}
			grid.put(cell)
		}
	}
	return grid, nil
}

// RunAVGrid runs all five attacks against the five commercial-AV
// simulators — Figure 3, and the AE pools Figure 4 learns from.
func (s *Suite) RunAVGrid() (*Grid, error) {
	grid := newGrid()
	for _, target := range s.AVs {
		target.ResetSignatures()
		for _, f := range s.Factories(target.Name()) {
			cell, err := s.runCell(f, target, target.Name())
			if err != nil {
				return nil, err
			}
			grid.put(cell)
		}
	}
	return grid, nil
}

// FunctionalityReport gives, per attack, how many successful AEs reproduce
// the original behaviour trace in the sandbox (§IV-A "Verifying
// functionality-preserving"; the paper finds only RLA breaking 23%).
type FunctionalityReport struct {
	Attack    string
	Preserved int
	Broken    int
}

// Rate returns the preserved fraction in percent.
func (r FunctionalityReport) Rate() float64 {
	total := r.Preserved + r.Broken
	if total == 0 {
		return 0
	}
	return 100 * float64(r.Preserved) / float64(total)
}

// RunFunctionalityCheck replays every successful AE of the grid against its
// original in the sandbox.
func (s *Suite) RunFunctionalityCheck(grid *Grid) ([]FunctionalityReport, error) {
	var out []FunctionalityReport
	for _, atk := range grid.Attacks {
		rep := FunctionalityReport{Attack: atk}
		for _, tgt := range grid.Targets {
			cell := grid.Cell(atk, tgt)
			if cell == nil {
				continue
			}
			for _, ae := range cell.AEs {
				ok, err := sandbox.BehaviourPreserved(s.Victims[ae.VictimIdx].Raw, ae.AE)
				if err != nil {
					return nil, fmt.Errorf("eval: functionality %s vs %s: %w", atk, tgt, err)
				}
				if ok {
					rep.Preserved++
				} else {
					rep.Broken++
				}
			}
		}
		out = append(out, rep)
	}
	return out, nil
}
