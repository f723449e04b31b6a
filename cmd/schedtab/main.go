// Command schedtab regenerates Table 1 (scheduler queue-operation
// overheads), Table 3 (the CSD-3 overhead case analysis) and the
// Table 2 / Figure 2 demonstration.
//
//	schedtab             # all three
//	schedtab -table 1    # only Table 1
//	schedtab -table 3 -q 4 -r 12 -n 30
//	schedtab -json -txt-out results/schedtab.txt   # paired artifacts in results/
package main

import (
	"flag"
	"fmt"
	"strings"

	"emeralds/internal/cli"
	"emeralds/internal/experiments"
)

func main() {
	c := cli.Register("schedtab", cli.TxtOut)
	table := flag.Int("table", 0, "which table (1, 2, 3); 0 = all")
	q := flag.Int("q", 5, "Table 3: DP1 queue length")
	r := flag.Int("r", 15, "Table 3: total DP tasks")
	n := flag.Int("n", 30, "Table 3: total tasks")
	c.Parse()
	if *table < 0 || *table > 3 {
		c.Fatalf("bad -table: %d (want 0–3)", *table)
	}
	// Table 3's three CSD queues hold q, r−q and n−r tasks; an empty
	// queue yields negative costs.
	c.AtLeast("q", *q, 1)
	c.AtLeast("r", *r, *q+1)
	c.AtLeast("n", *n, *r+1)

	type series struct {
		Table1  []experiments.Table1Row    `json:"table1,omitempty"`
		Figure2 *experiments.Figure2Result `json:"figure2,omitempty"`
		Table3  []experiments.Table3Entry  `json:"table3,omitempty"`
	}
	var s series
	var out strings.Builder
	if *table == 0 || *table == 1 {
		s.Table1 = experiments.Table1(nil)
		out.WriteString(experiments.RenderTable1(s.Table1))
		out.WriteString("\n")
	}
	if *table == 0 || *table == 2 {
		fig := experiments.Figure2(nil)
		s.Figure2 = &fig
		out.WriteString(fig.Render())
		out.WriteString("\n")
	}
	if *table == 0 || *table == 3 {
		s.Table3 = experiments.Table3(nil, *q, *r, *n)
		out.WriteString(experiments.RenderTable3(s.Table3, *q, *r, *n))
	}
	fmt.Print(out.String())
	c.EmitText(out.String())

	type config struct {
		Table int `json:"table"`
		Q     int `json:"q"`
		R     int `json:"r"`
		N     int `json:"n"`
	}
	c.EmitArtifact(config{*table, *q, *r, *n}, s)
}
