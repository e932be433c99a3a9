package eval

import (
	"encoding/csv"
	"io"
	"strconv"
)

// WriteCSV exports the grid in long form — one row per (attack, target)
// cell with all three metrics — for downstream analysis and plotting.
func (g *Grid) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"attack", "target", "asr_pct", "avq", "apr_pct", "success", "total", "queries"}); err != nil {
		return err
	}
	for _, atk := range g.Attacks {
		for _, tgt := range g.Targets {
			c := g.Cell(atk, tgt)
			if c == nil {
				continue
			}
			rec := []string{
				atk, tgt,
				strconv.FormatFloat(c.ASR(), 'f', 2, 64),
				strconv.FormatFloat(c.AVQ(), 'f', 2, 64),
				strconv.FormatFloat(c.APR(), 'f', 2, 64),
				strconv.Itoa(c.Success),
				strconv.Itoa(c.Total),
				strconv.Itoa(c.Queries),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
