// Command sembench regenerates Figures 11 and 12 of the paper:
// semaphore acquire/release overhead versus scheduler queue length,
// standard implementation versus the EMERALDS optimized scheme.
//
//	sembench -queue dp    # Figure 11: the EDF/DP queue
//	sembench -queue fp    # Figure 12: the RM/FP queue
//	sembench              # both
//	sembench -json        # versioned artifact in results/
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"emeralds/internal/cli"
	"emeralds/internal/experiments"
)

func main() {
	c := cli.Register("sembench", cli.Workers, cli.CSV)
	queue := flag.String("queue", "both", "which queue to exercise: dp, fp, both")
	lens := flag.String("len", "3,6,9,12,15,18,21,24,27,30", "comma-separated queue lengths (minimum 3)")
	c.Parse()
	ls := c.Ints("len", *lens, 3)
	par := experiments.Par{Workers: c.Workers, Progress: c.Progress()}

	var kinds []experiments.SemQueueKind
	switch *queue {
	case "dp":
		kinds = []experiments.SemQueueKind{experiments.DPQueue}
	case "fp":
		kinds = []experiments.SemQueueKind{experiments.FPQueue}
	case "both":
		kinds = []experiments.SemQueueKind{experiments.DPQueue, experiments.FPQueue}
	default:
		c.Fatalf("unknown -queue %q", *queue)
	}

	figures := map[experiments.SemQueueKind]string{
		experiments.DPQueue: "Figure 11",
		experiments.FPQueue: "Figure 12",
	}
	series := map[string][]experiments.SemPoint{}
	var csvRows [][]string
	for _, kind := range kinds {
		pts, diag := experiments.SemOverheadCurveDiag(kind, ls, par)
		series[string(kind)] = pts
		if c.Diagnostics == nil {
			c.Diagnostics = diag
		} else {
			c.Diagnostics.Merge(diag)
		}
		if c.CSV {
			for _, p := range pts {
				csvRows = append(csvRows, []string{
					string(kind), fmt.Sprint(p.QueueLen),
					fmt.Sprintf("%.2f", p.Standard.Micros()),
					fmt.Sprintf("%.2f", p.Optimized.Micros()),
					fmt.Sprintf("%.1f", p.SavingPct()),
				})
			}
			continue
		}
		fmt.Printf("%s — semaphore acquire/release overhead, %s queue\n",
			figures[kind], strings.ToUpper(string(kind)))
		var rows [][]string
		for _, p := range pts {
			rows = append(rows, []string{
				fmt.Sprint(p.QueueLen),
				p.Standard.String(), p.Optimized.String(),
				fmt.Sprintf("%.0f%%", p.SavingPct()),
			})
		}
		cli.Table(os.Stdout, []string{"queue len", "standard", "optimized", "saving"}, rows)
		fmt.Println()
	}
	if c.CSV {
		cli.WriteCSV(os.Stdout, []string{"queue", "len", "standard_us", "optimized_us", "saving_pct"}, csvRows)
	}

	type config struct {
		Queue string `json:"queue"`
		Lens  []int  `json:"lens"`
	}
	c.EmitArtifact(config{*queue, ls}, series)
}
