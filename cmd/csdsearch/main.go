// Command csdsearch runs the §5.5.3 off-line queue-partition search on
// a random workload: it reports the best feasible allocation of tasks
// to the DP and FP queues and the scheduler-overhead fraction of each
// candidate count. The paper notes the three-queue search is O(n²) and
// took 2–3 minutes for 100 tasks on a 167 MHz Ultra-1.
//
//	csdsearch -n 100 -u 0.7 -json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"emeralds/internal/analysis"
	"emeralds/internal/cli"
	"emeralds/internal/costmodel"
	"emeralds/internal/task"
	"emeralds/internal/workload"
)

func main() {
	c := cli.Register("csdsearch", cli.Seed, cli.CSV)
	n := flag.Int("n", 100, "number of tasks")
	u := flag.Float64("u", 0.7, "raw workload utilization")
	div := flag.Int("div", 1, "period divisor")
	queues := flag.Int("queues", 3, "CSD queue count x")
	c.Parse()
	c.AtLeast("n", *n, 1)
	c.Positive("u", *u)
	c.AtLeast("div", *div, 1)
	c.AtLeast("queues", *queues, 1)

	prof := costmodel.M68040()
	specs := workload.Generate(workload.Config{
		N: *n, Utilization: *u, PeriodDiv: *div, Seed: c.Seed,
	})
	rmSorted := analysis.SortRM(specs)

	start := time.Now()
	part, score, ok := analysis.BestPartition(prof, rmSorted, *queues)
	elapsed := time.Since(start)
	candidates := len(analysis.Candidates(*queues, *n))

	// EDF/RM overhead fractions for comparison.
	edf := analysis.EDFOverheads(prof, *n).PerPeriod()
	rm := analysis.RMOverheads(prof, *n).PerPeriod()
	var edfFrac, rmFrac float64
	for _, s := range rmSorted {
		edfFrac += float64(edf) / float64(s.Period)
		rmFrac += float64(rm) / float64(s.Period)
	}

	type config struct {
		N      int     `json:"n"`
		U      float64 `json:"u"`
		Div    int     `json:"period_div"`
		Seed   int64   `json:"seed"`
		Queues int     `json:"queues"`
	}
	type series struct {
		Feasible         bool    `json:"feasible"`
		DPSizes          []int   `json:"dp_sizes,omitempty"`
		FPTasks          int     `json:"fp_tasks"`
		OverheadFraction float64 `json:"overhead_fraction"`
		Candidates       int     `json:"candidates"`
		EDFFraction      float64 `json:"edf_fraction"`
		RMFraction       float64 `json:"rm_fraction"`
	}
	emit := func(s series) {
		c.EmitArtifact(config{*n, *u, *div, c.Seed, *queues}, s)
	}

	if !ok {
		fmt.Printf("no feasible CSD-%d partition (searched %d candidates in %v)\n",
			*queues, candidates, elapsed)
		emit(series{Feasible: false, FPTasks: *n, Candidates: candidates,
			EDFFraction: edfFrac, RMFraction: rmFrac})
		os.Exit(1)
	}

	if c.CSV {
		cli.WriteCSV(os.Stdout,
			[]string{"queues", "n", "dp_sizes", "fp_tasks", "overhead_fraction", "edf_fraction", "rm_fraction"},
			[][]string{{
				fmt.Sprint(*queues), fmt.Sprint(*n),
				fmt.Sprintf("%v", part.DPSizes), fmt.Sprint(*n - part.DPTotal()),
				fmt.Sprintf("%.4f", score), fmt.Sprintf("%.4f", edfFrac), fmt.Sprintf("%.4f", rmFrac),
			}})
	} else {
		fmt.Printf("workload: n=%d U=%.3f periods ÷%d seed=%d\n",
			*n, task.TotalUtilization(specs), *div, c.Seed)
		fmt.Printf("best CSD-%d partition: DP sizes %v, FP %d tasks\n",
			*queues, part.DPSizes, *n-part.DPTotal())
		fmt.Printf("scheduler overhead fraction: %.4f of CPU\n", score)
		fmt.Printf("candidates searched: %d in %v (wall clock)\n", candidates, elapsed)
		fmt.Printf("for comparison: EDF overhead fraction %.4f, RM %.4f\n", edfFrac, rmFrac)
	}
	emit(series{Feasible: true, DPSizes: part.DPSizes, FPTasks: *n - part.DPTotal(),
		OverheadFraction: score, Candidates: candidates,
		EDFFraction: edfFrac, RMFraction: rmFrac})
}
