// Command breakdown regenerates Figures 3–5 of the paper: average
// breakdown utilization versus task count for RM, EDF, CSD-2, CSD-3
// and CSD-4, at the three period scalings. The sweep fans out over
// all CPUs; the series are identical for any -workers value.
//
//	breakdown -div 1            # Figure 3 (base periods, 5 ms – 1 s)
//	breakdown -div 2            # Figure 4 (periods halved)
//	breakdown -div 3            # Figure 5 (periods ÷3)
//	breakdown -workloads 500    # the paper's sample size
//	breakdown -csv              # machine-readable stdout
//	breakdown -json             # versioned artifact in results/
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"emeralds/internal/cli"
	"emeralds/internal/costmodel"
	"emeralds/internal/experiments"
	"emeralds/internal/vtime"
)

func main() {
	c := cli.Register("breakdown", cli.Seed, cli.Workers, cli.CSV)
	div := flag.Int("div", 1, "divide task periods by this factor (1, 2, 3)")
	workloads := flag.Int("workloads", 100, "random workloads per point (paper: 500)")
	ns := flag.String("n", "", "comma-separated task counts (default 5..50 step 5)")
	simulate := flag.Bool("sim", false, "cross-check EDF/RM points by simulation-driven breakdown (slow; horizon 2 s)")
	c.Parse()
	c.AtLeast("div", *div, 1)
	c.AtLeast("workloads", *workloads, 1)

	// One profile drives everything: the analytic sweep and, under
	// -sim, the simulation cross-check (which previously defaulted to
	// its own profile while the sweep used another).
	prof := costmodel.M68040()
	cfg := experiments.BreakdownConfig{
		PeriodDiv: *div,
		Workloads: *workloads,
		Seed:      c.Seed,
		Profile:   prof,
		Par:       experiments.Par{Workers: c.Workers, Progress: c.Progress()},
	}
	if *ns != "" {
		cfg.Ns = c.Ints("n", *ns, 1)
	}
	res := experiments.BreakdownFigure(cfg)

	if c.CSV {
		header := append([]string{"n"}, res.Cfg.Schedulers...)
		var rows [][]string
		for i, n := range res.Ns {
			row := []string{strconv.Itoa(n)}
			for _, s := range res.Cfg.Schedulers {
				row = append(row, fmt.Sprintf("%.2f", res.Series[s][i]))
			}
			rows = append(rows, row)
		}
		cli.WriteCSV(os.Stdout, header, rows)
	} else {
		fig := map[int]string{1: "Figure 3", 2: "Figure 4", 3: "Figure 5"}[*div]
		if fig == "" {
			fig = fmt.Sprintf("periods ÷%d", *div)
		}
		fmt.Printf("%s — %s", fig, res.Render())
	}

	var sim []experiments.CompareSweepPoint
	if *simulate {
		sim = experiments.CompareSweep(prof, res.Ns, *div, c.Seed, 2*vtime.Second, cfg.Par)
		if !c.CSV {
			fmt.Println("\nsimulation cross-check (workload 0 of each n, horizon 2 s):")
			fmt.Printf("%6s %12s %12s %12s %12s\n", "n", "EDF-analytic", "EDF-sim", "RM-analytic", "RM-sim")
			for _, pt := range sim {
				fmt.Printf("%6d %11.1f%% %11.1f%% %11.1f%% %11.1f%%\n",
					pt.N, 100*pt.Cmps[0].Analytic, 100*pt.Cmps[0].Simulated,
					100*pt.Cmps[1].Analytic, 100*pt.Cmps[1].Simulated)
			}
		}
	}

	type config struct {
		PeriodDiv  int      `json:"period_div"`
		Workloads  int      `json:"workloads"`
		Seed       int64    `json:"seed"`
		Schedulers []string `json:"schedulers"`
		Profile    string   `json:"profile"`
	}
	type series struct {
		Ns           []int                           `json:"ns"`
		BreakdownPct map[string][]float64            `json:"breakdown_pct"`
		SimCheck     []experiments.CompareSweepPoint `json:"sim_crosscheck,omitempty"`
	}
	c.EmitArtifact(
		config{*div, res.Cfg.Workloads, c.Seed, res.Cfg.Schedulers, prof.Name},
		series{res.Ns, res.Series, sim})
}
