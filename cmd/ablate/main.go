// Command ablate runs the design-choice ablations of DESIGN.md §6:
// the §6.2 semaphore optimization split into its hint and place-holder
// halves, the §5.3 CSD ready counters, and the §5.6 CSD-x queue-count
// sweep.
//
//	ablate -len 5,15,30 -json
package main

import (
	"flag"
	"fmt"
	"os"

	"emeralds/internal/cli"
	"emeralds/internal/experiments"
	"emeralds/internal/kernel"
	"emeralds/internal/vtime"
)

func main() {
	c := cli.Register("ablate", cli.Seed, cli.Workers, cli.CSV)
	f := c.SimFlags()
	lens := flag.String("len", "5,10,15,20,25,30", "queue lengths for the semaphore ablation (minimum 3)")
	sweepN := flag.Int("sweep-n", 30, "task count for the queue-count sweep")
	sweepCount := flag.Int("sweep-workloads", 20, "workloads per queue-count point")
	lockCPUs := flag.String("lock-cpus", "1,2,4", "CPU counts for the lock-granularity grid")
	lockMs := flag.Float64("lock-ms", 1000, "virtual milliseconds per lock-granularity cell")
	c.Parse()
	ls := c.Ints("len", *lens, 3)
	c.AtLeast("sweep-n", *sweepN, 1)
	c.AtLeast("sweep-workloads", *sweepCount, 1)
	lockMs64 := c.Millis("lock-ms", *lockMs)
	lcs := c.Ints("lock-cpus", *lockCPUs, 1)
	// The shared -cpus/-lock flags pin the lock-granularity grid to one
	// row/regime, matching their meaning in emsim/emreport/emfuzz. The
	// defaults leave the full grid.
	if cli.Explicit("cpus") {
		lcs = []int{f.CPUs}
	}
	var regimes []kernel.LockRegime
	if cli.Explicit("lock") {
		r, _ := kernel.ParseLockRegime(f.Lock) // checked by Parse
		regimes = []kernel.LockRegime{r}
	}
	par := experiments.Par{Workers: c.Workers, Progress: c.Progress()}

	semSeries := map[string][]experiments.SemAblationPoint{}
	for _, kind := range []experiments.SemQueueKind{experiments.DPQueue, experiments.FPQueue} {
		pts, diag := experiments.SemAblationDiag(kind, ls, par)
		semSeries[string(kind)] = pts
		if c.Diagnostics == nil {
			c.Diagnostics = diag
		} else {
			c.Diagnostics.Merge(diag)
		}
		if !c.CSV {
			fmt.Print(experiments.RenderSemAblation(kind, pts))
			fmt.Println()
		}
	}

	with, without := experiments.CSDCounterAblation(par)
	saving := 100 * float64(without-with) / float64(without)
	if !c.CSV {
		fmt.Println("CSD ready-counter ablation (total scheduler charge, 2 s run,")
		fmt.Println("8 short DP tasks + 6 long FP tasks — DP queues mostly empty):")
		fmt.Printf("  with counters:    %v\n", with)
		fmt.Printf("  without counters: %v\n", without)
		fmt.Printf("  counters save:    %.0f%%\n", saving)
		fmt.Println()
	}

	lockPts := experiments.LockGrid(lcs, regimes, lockMs64, par)
	if !c.CSV {
		fmt.Print(experiments.RenderLockGranularity(lockMs64, lockPts))
		fmt.Println()
	}

	// -trace-out/-sample-us observe one demonstrative lock cell — the
	// -cpus/-lock configuration — rerun with the flight recorder and
	// trace ring attached; the sampled series lands in the artifact's
	// timeseries block and the trace in the Perfetto export.
	if f.Observing() {
		_, n, err := experiments.LockCellObserved(f.Config(), lockMs64, f.Observe)
		if err != nil {
			c.Fatalf("observed lock cell: %v", err)
		}
		if err := f.Finish(n); err != nil {
			c.Fatalf("observed lock cell: %v", err)
		}
	}

	xs := []int{1, 2, 3, 4, 6, 8, 12, 20, 29}
	sweep := experiments.QueueCountSweep(*sweepN, xs, *sweepCount, c.Seed, par)
	if c.CSV {
		var rows [][]string
		for _, kind := range []string{"dp", "fp"} {
			for _, p := range semSeries[kind] {
				rows = append(rows, []string{"sem-" + kind, fmt.Sprint(p.QueueLen),
					fmt.Sprintf("%.2f", p.Standard.Micros()),
					fmt.Sprintf("%.2f", p.HintOnly.Micros()),
					fmt.Sprintf("%.2f", p.PlaceholderOnly.Micros()),
					fmt.Sprintf("%.2f", p.Full.Micros())})
			}
		}
		for _, p := range lockPts {
			rows = append(rows, []string{"lock-" + p.Regime, fmt.Sprint(p.CPUs),
				fmt.Sprintf("%.2f", p.LockCharge.Micros()),
				fmt.Sprint(p.Contentions),
				fmt.Sprintf("%.2f", p.Overhead.Micros()),
				fmt.Sprint(p.Misses)})
		}
		for _, p := range sweep {
			rows = append(rows, []string{"queue-sweep", fmt.Sprint(p.X),
				fmt.Sprintf("%.2f", p.Breakdown), "", "", ""})
		}
		cli.WriteCSV(os.Stdout,
			[]string{"experiment", "x", "v1", "v2", "v3", "v4"}, rows)
	} else {
		fmt.Print(experiments.RenderQueueSweep(*sweepN, sweep))
	}

	type counterResult struct {
		With    vtime.Duration `json:"with_counters_us"`
		Without vtime.Duration `json:"without_counters_us"`
		SavePct float64        `json:"saving_pct"`
	}
	type config struct {
		Lens       []int   `json:"lens"`
		SweepN     int     `json:"sweep_n"`
		SweepCount int     `json:"sweep_workloads"`
		Seed       int64   `json:"seed"`
		LockCPUs   []int   `json:"lock_cpus"`
		LockMs     float64 `json:"lock_ms"`
	}
	type series struct {
		SemAblation map[string][]experiments.SemAblationPoint `json:"sem_ablation"`
		CSDCounters counterResult                             `json:"csd_counters"`
		QueueSweep  []experiments.QueueSweepPoint             `json:"queue_sweep"`
		LockGrid    []experiments.LockPoint                   `json:"lock_granularity"`
	}
	c.EmitArtifact(
		config{ls, *sweepN, *sweepCount, c.Seed, lcs, *lockMs},
		series{semSeries, counterResult{with, without, saving}, sweep, lockPts})
}
