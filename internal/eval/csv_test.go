package eval

import (
	"strings"
	"testing"
)

func TestWriteCSV(t *testing.T) {
	g := newGrid()
	g.Put(&Cell{Attack: "MPass", Target: "MalConv",
		Metrics: Metrics{Success: 3, Total: 4, Queries: 9, SumAPR: 450}})
	g.Put(&Cell{Attack: "MAB", Target: "MalConv",
		Metrics: Metrics{Success: 1, Total: 4, Queries: 80, SumAPR: 900}})

	var b strings.Builder
	if err := g.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "attack,target,asr_pct") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(out, "MPass,MalConv,75.00,2.25,150.00,3,4,9") {
		t.Errorf("missing MPass row:\n%s", out)
	}
}
