// Command emreport turns a kernel trace into a latency-attribution
// report: every task's response time decomposed into running /
// preempted / blocked / overhead (the components sum exactly to the
// measured response), a root-cause entry for every deadline miss
// naming the intervals that consumed the slack, and flagged
// priority-inversion windows.
//
//	emreport                             # replay the Table 2 workload on CSD-3
//	emreport -policy rm -ms 200          # watch RM's τ₅ misses get explained
//	emreport -trace trace.json           # analyze an emsim -trace-out export
//	emreport -trace t.json -syncheck     # + communication synchronizability check
//	emreport -json                       # artifact with attribution block in results/
//
// -trace accepts either a raw emeralds.trace/v1 JSON log or a Perfetto
// export produced by emsim -trace-out (the raw log rides along
// inside). Output is deterministic: the same trace or scenario always
// renders the same bytes, whatever the host's parallelism.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"emeralds/internal/attrib"
	"emeralds/internal/cli"
	"emeralds/internal/ipc/syncheck"
	"emeralds/internal/trace"
)

func main() {
	c := cli.Register("emreport", cli.Seed, cli.CSV, cli.TxtOut)
	r := c.RunFlags(100)
	traceIn := flag.String("trace", "", "analyze a trace JSON file instead of replaying a scenario")
	doSync := flag.Bool("syncheck", false, "append an IPC synchronizability check (crown detection over the observed sends/receives)")
	c.Parse()

	var (
		rep    *attrib.Report
		events []trace.Event
		source string
		err    error
	)
	if *traceIn != "" {
		rep, events, err = analyzeFile(*traceIn)
		source = *traceIn
	} else {
		rep, events, err = runScenario(c, r)
		source = describe(r, c.Seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "emreport:", err)
		os.Exit(1)
	}
	if rep.TraceDropped > 0 && !c.Quiet {
		fmt.Fprintf(os.Stderr, "emreport: WARNING: %d trace events were dropped by the ring; the report covers a truncated window\n", rep.TraceDropped)
	}

	if c.CSV {
		writeCSV(os.Stdout, rep)
	} else {
		var sb strings.Builder
		rep.RenderText(&sb, source)
		if *doSync {
			fmt.Fprintf(&sb, "\n%s", syncheck.Check(events).String())
		}
		fmt.Print(sb.String())
		c.EmitText(sb.String())
	}

	c.Attribution = rep
	type config struct {
		Trace  string  `json:"trace,omitempty"`
		Policy string  `json:"policy,omitempty"`
		Queues int     `json:"queues,omitempty"`
		N      int     `json:"n,omitempty"`
		U      float64 `json:"u,omitempty"`
		Div    int     `json:"period_div,omitempty"`
		Seed   int64   `json:"seed,omitempty"`
		Millis float64 `json:"run_ms,omitempty"`
		StdSem bool    `json:"standard_sem,omitempty"`
		CPUs   int     `json:"cpus,omitempty"`
		Lock   string  `json:"lock,omitempty"`
	}
	type series struct {
		Tasks      int `json:"tasks"`
		Misses     int `json:"misses"`
		Inversions int `json:"inversions"`
	}
	cfg := config{Trace: *traceIn}
	if *traceIn == "" {
		cpus, lock := r.MulticoreConfig()
		cfg = config{
			Policy: r.Policy, Queues: r.Queues, N: r.N, U: r.U,
			Div: r.Div, Seed: c.Seed, Millis: r.Ms, StdSem: r.StandardSem,
			CPUs: cpus, Lock: lock,
		}
	}
	c.EmitArtifact(cfg, series{len(rep.Tasks), len(rep.Misses), len(rep.Inversions)})
}

// describe names the flagged scenario in the report's header.
func describe(r *cli.RunFlags, seed int64) string {
	wl := "table2"
	if r.N > 0 {
		wl = fmt.Sprintf("random n=%d u=%.2f seed=%d", r.N, r.U, seed)
	}
	out := fmt.Sprintf("scenario %s policy=%s %.0fms", wl, r.Policy, r.Ms)
	if r.CPUs > 1 {
		out += fmt.Sprintf(" cpus=%d lock=%s", r.CPUs, r.Lock)
	}
	return out
}

// runScenario runs the flagged scenario with the whole run's trace kept
// and replays that trace into a report, returning the raw events too so
// -syncheck can re-analyze the same window.
func runScenario(c *cli.Common, r *cli.RunFlags) (*attrib.Report, []trace.Event, error) {
	cfg := r.Config()
	cfg.TraceCapacity = 1 << 20
	sys, err := r.Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	c.Diagnostics = sys.Kernel().Diagnostics()
	if err := r.Finish(sys); err != nil {
		return nil, nil, err
	}
	events := sys.Trace().Events()
	an, err := attrib.Analyze(events, sys.Trace().Dropped())
	if err != nil {
		return nil, nil, err
	}
	return an.Report(), events, nil
}

// analyzeFile loads a trace JSON file (raw log or Perfetto export) and
// replays it.
func analyzeFile(path string) (*attrib.Report, []trace.Event, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	events, dropped, err := trace.ParseJSON(data)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	an, err := attrib.Analyze(events, dropped)
	if err != nil {
		return nil, nil, err
	}
	return an.Report(), events, nil
}

// writeCSV emits the per-task decomposition as machine-readable rows.
func writeCSV(w io.Writer, rep *attrib.Report) {
	header := []string{"task", "prio", "activations", "misses", "overruns",
		"response_us", "running_us", "preempted_us", "blocked_us", "overhead_us"}
	var rows [][]string
	for _, t := range rep.Tasks {
		rows = append(rows, []string{
			t.Task, fmt.Sprint(t.Prio), fmt.Sprint(t.Activations),
			fmt.Sprint(t.Misses), fmt.Sprint(t.Overruns),
			fmt.Sprintf("%.3f", t.TotalUs["response"]),
			fmt.Sprintf("%.3f", t.TotalUs["running"]),
			fmt.Sprintf("%.3f", t.TotalUs["preempted"]),
			fmt.Sprintf("%.3f", t.TotalUs["blocked"]),
			fmt.Sprintf("%.3f", t.TotalUs["overhead"]),
		})
	}
	cli.WriteCSV(w, header, rows)
}
