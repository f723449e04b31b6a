// Command emreport turns a kernel trace into a latency-attribution
// report: every task's response time decomposed into running /
// preempted / blocked / overhead (the components sum exactly to the
// measured response), a root-cause entry for every deadline miss
// naming the intervals that consumed the slack, and flagged
// priority-inversion windows.
//
//	emreport                             # replay the Table 2 workload on CSD-3
//	emreport -policy rm -ms 200          # watch RM's τ₅ misses get explained
//	emreport -trace trace.json           # analyze an emsim/emtrace trace export
//	emreport -trace t.json -syncheck     # + communication synchronizability check
//	emreport -json                       # artifact with attribution block in results/
//
// -trace accepts either a raw emeralds.trace/v1 JSON log or a Perfetto
// export produced by emsim -trace-out / emtrace (the raw log rides
// along inside). Output is deterministic: the same trace or scenario
// always renders the same bytes, regardless of -workers.
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
	"emeralds/internal/kernel"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/trace"
	"emeralds/internal/vtime"
	"emeralds/internal/workload"
)

func main() {
	c := cli.Register("emreport")
	f := c.SimFlags()
	policy := flag.String("policy", "csd", "scheduler: csd, edf, rm, rm-heap, fp")
	queues := flag.Int("queues", 3, "CSD queue count")
	n := flag.Int("n", 0, "random workload size (0 = use the Table 2 workload)")
	u := flag.Float64("u", 0.7, "random workload utilization")
	div := flag.Int("div", 1, "period divisor")
	ms := flag.Float64("ms", 100, "virtual milliseconds to run (scenario mode)")
	standard := flag.Bool("standard-sem", false, "use the standard §6.1 semaphore scheme")
	traceIn := flag.String("trace", "", "analyze a trace JSON file instead of replaying a scenario")
	doSync := flag.Bool("syncheck", false, "append an IPC synchronizability check (crown detection over the observed sends/receives)")
	c.Parse()
	c.AtLeast("queues", *queues, 1)
	c.AtLeast("n", *n, 0)
	c.Positive("u", *u)
	c.AtLeast("div", *div, 1)
	c.Millis("ms", *ms)

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
		cfg := scenario{
			Policy: *policy, Queues: *queues, N: *n, U: *u, Div: *div,
			Seed: c.Seed, Millis: *ms, StandardSem: *standard,
			CPUs: c.CPUs, Lock: c.Lock,
		}
		rep, events, err = runScenario(cfg, c, f)
		source = cfg.String()
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
		cpus, lock := c.MulticoreConfig()
		cfg = config{
			Policy: *policy, Queues: *queues, N: *n, U: *u,
			Div: *div, Seed: c.Seed, Millis: *ms, StdSem: *standard,
			CPUs: cpus, Lock: lock,
		}
	}
	c.EmitArtifact(cfg, series{len(rep.Tasks), len(rep.Misses), len(rep.Inversions)})
}

// scenario mirrors emsim's simulation flags.
type scenario struct {
	Policy      string
	Queues      int
	N           int
	U           float64
	Div         int
	Seed        int64
	Millis      float64
	StandardSem bool
	CPUs        int
	Lock        string
}

func (s scenario) String() string {
	wl := "table2"
	if s.N > 0 {
		wl = fmt.Sprintf("random n=%d u=%.2f seed=%d", s.N, s.U, s.Seed)
	}
	out := fmt.Sprintf("scenario %s policy=%s %.0fms", wl, s.Policy, s.Millis)
	if s.CPUs > 1 {
		out += fmt.Sprintf(" cpus=%d lock=%s", s.CPUs, s.Lock)
	}
	return out
}

// buildSystem boots the configured workload and runs it to the
// configured horizon. Deterministic for a given config; f (optional)
// attaches the flight recorder before Boot.
func buildSystem(cfg scenario, f *cli.SimFlags) (*kernel.Node, error) {
	var specs []task.Spec
	if cfg.N > 0 {
		specs = workload.Generate(workload.Config{
			N: cfg.N, Utilization: cfg.U, PeriodDiv: cfg.Div, Seed: cfg.Seed,
		})
	} else {
		specs = workload.Table2()
	}
	sys, err := kernel.Boot(sim.Config{
		Policy:        cfg.Policy,
		Queues:        cfg.Queues,
		CPUs:          cfg.CPUs,
		Lock:          cfg.Lock,
		StandardSem:   cfg.StandardSem,
		TraceCapacity: 1 << 20,
	}, func(sys *kernel.Node) error {
		for _, s := range specs {
			sys.AddTask(s)
		}
		if f != nil {
			return f.Observe(sys)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sys.Run(vtime.Millis(cfg.Millis))
	return sys, nil
}

// runScenario replays the scenario's trace into a report, returning the
// raw events too so -syncheck can re-analyze the same window.
func runScenario(cfg scenario, c *cli.Common, f *cli.SimFlags) (*attrib.Report, []trace.Event, error) {
	sys, err := buildSystem(cfg, f)
	if err != nil {
		return nil, nil, err
	}
	if c != nil {
		c.Diagnostics = sys.Kernel().Diagnostics()
	}
	if f != nil {
		if err := f.Finish(sys); err != nil {
			return nil, nil, err
		}
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
