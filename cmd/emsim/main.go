// Command emsim boots an EMERALDS system on a random or built-in
// workload, runs it for a span of virtual time, and prints the
// schedule trace and per-task report — the quickest way to watch the
// kernel work.
//
//	emsim                          # Table 2 workload on CSD-3, 1 s
//	emsim -policy rm -trace 40     # watch RM drop τ₅ (first 40 events)
//	emsim -n 12 -u 0.8 -seed 7     # random 12-task workload
//	emsim -attrib                  # latency-attribution report from the trace
//	emsim -json                    # versioned artifact in results/
package main

import (
	"flag"
	"fmt"
	"os"

	"emeralds/internal/attrib"
	"emeralds/internal/cli"
	"emeralds/internal/kernel"
	"emeralds/internal/telemetry"
	"emeralds/internal/trace"
	"emeralds/internal/vtime"
)

func main() {
	c := cli.Register("emsim", cli.Seed, cli.CSV)
	r := c.RunFlags(1000)
	traceN := flag.Int("trace", 0, "print the last N trace events")
	gantt := flag.Float64("gantt", 0, "render an ASCII Gantt chart of the first N virtual milliseconds")
	attribFlag := flag.Bool("attrib", false, "print the latency-attribution report and embed it in the -json artifact")
	teleFlag := flag.Bool("telemetry", false, "print the telemetry summary (sparklines, SLO verdicts, change points); implies a default -sample-us")
	c.Parse()
	c.AtLeast("trace", *traceN, 0)
	if *gantt != 0 {
		c.Millis("gantt", *gantt)
	}
	if *teleFlag && r.SampleUs == 0 {
		// Default cadence: 512 samples across the run. Under one
		// virtual nanosecond the flight recorder would refuse it mid-run.
		r.SampleUs = r.Ms * 1000 / 512
		if r.SampleUs < 0.001 {
			c.Fatalf("bad -ms: %v is too short for -telemetry's default cadence of 512 samples per run (want ≥ 0.000512, or set -sample-us)", r.Ms)
		}
	}

	cfg := r.Config()
	cfg.RecordResponses = true
	cfg.TraceCapacity = max(cfg.TraceCapacity, *traceN)
	if *gantt > 0 {
		cfg.TraceCapacity = max(cfg.TraceCapacity, 1<<16)
	}
	if *attribFlag {
		// The attribution replay wants the whole run, not the tail of a
		// small ring.
		cfg.TraceCapacity = max(cfg.TraceCapacity, 1<<20)
	}

	sys, err := r.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "emsim:", err)
		os.Exit(1)
	}

	if err := r.Finish(sys); err != nil {
		fmt.Fprintln(os.Stderr, "emsim:", err)
		os.Exit(1)
	}
	if *teleFlag {
		telemetry.Analyze(c.Timeseries, telemetry.SLO{}).
			RenderText(os.Stdout, c.Timeseries, "emsim")
		fmt.Println()
	}

	if *traceN > 0 {
		evs := sys.Trace().Events()
		if len(evs) > *traceN {
			evs = evs[len(evs)-*traceN:]
		}
		for _, e := range evs {
			fmt.Println(e)
		}
		fmt.Println()
	}
	if *gantt > 0 {
		fmt.Println("Gantt (█ running, ░ ready, · blocked):")
		fmt.Print(sys.Trace().Gantt(trace.GanttConfig{
			To: vtime.Time(vtime.Millis(*gantt)),
		}))
		fmt.Println()
	}
	if *attribFlag {
		an, err := attrib.Analyze(sys.Trace().Events(), sys.Trace().Dropped())
		if err != nil {
			fmt.Fprintln(os.Stderr, "emsim:", err)
			os.Exit(1)
		}
		c.Attribution = an.Report()
		c.Attribution.RenderText(os.Stdout, "emsim live trace")
		fmt.Println()
	}

	type taskRow struct {
		Name        string         `json:"name"`
		Period      vtime.Duration `json:"period_us"`
		Releases    uint64         `json:"releases"`
		Completions uint64         `json:"completions"`
		Misses      uint64         `json:"misses"`
		Preemptions uint64         `json:"preemptions"`
		AvgResp     vtime.Duration `json:"avg_resp_us"`
		MaxResp     vtime.Duration `json:"max_resp_us"`
	}
	var tasks []taskRow
	for _, th := range sys.Kernel().Threads() {
		t := th.TCB
		tasks = append(tasks, taskRow{
			Name: t.Name, Period: t.Spec.Period,
			Releases: t.Releases, Completions: t.Completions,
			Misses: t.Misses, Preemptions: t.Preemptions,
			AvgResp: t.AvgResp(), MaxResp: t.MaxResp,
		})
	}

	if c.CSV {
		var rows [][]string
		for _, tr := range tasks {
			rows = append(rows, []string{
				tr.Name, fmt.Sprintf("%.1f", tr.Period.Micros()),
				fmt.Sprint(tr.Releases), fmt.Sprint(tr.Completions),
				fmt.Sprint(tr.Misses), fmt.Sprint(tr.Preemptions),
				fmt.Sprintf("%.2f", tr.AvgResp.Micros()), fmt.Sprintf("%.2f", tr.MaxResp.Micros()),
			})
		}
		cli.WriteCSV(os.Stdout,
			[]string{"task", "period_us", "releases", "completions", "misses", "preemptions", "avg_resp_us", "max_resp_us"},
			rows)
	} else {
		fmt.Print(sys.Report())
	}

	type config struct {
		Policy string  `json:"policy"`
		Queues int     `json:"queues"`
		N      int     `json:"n"`
		U      float64 `json:"u"`
		Div    int     `json:"period_div"`
		Seed   int64   `json:"seed"`
		Millis float64 `json:"run_ms"`
		StdSem bool    `json:"standard_sem"`
		// Zero-valued on single-CPU runs so pre-multicore artifacts keep
		// their exact bytes.
		CPUs int    `json:"cpus,omitempty"`
		Lock string `json:"lock,omitempty"`
	}
	type series struct {
		Stats kernel.Stats `json:"stats"`
		Tasks []taskRow    `json:"tasks"`
	}
	cpus, lock := r.MulticoreConfig()
	c.Diagnostics = sys.Kernel().Diagnostics()
	c.EmitArtifact(
		config{r.Policy, r.Queues, r.N, r.U, r.Div, c.Seed, r.Ms, r.StandardSem, cpus, lock},
		series{sys.Stats(), tasks})
}
