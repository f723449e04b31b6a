// Command emfuzz runs a property-based fuzzing campaign over randomly
// generated scenarios: every policy, both semaphore schemes, M ∈ {1,2,4}
// and every lock regime unless -cpus and -lock pin one, with five
// oracles checked per trace (differential feasibility, attribution
// residual, priority inversion, kernel invariants, IPC
// synchronizability). Violations are minimized into self-contained
// repro files and the exit status is 1, so the command doubles as a CI
// gate.
//
//	emfuzz -scenarios 1000 -seed 1     # the PR acceptance run
//	emfuzz -scenarios 50 -cpus 4       # pin quad-core scenarios
//	emfuzz -json                       # emeralds.fuzz/v1 artifact
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"emeralds/internal/cli"
	"emeralds/internal/harness"
	"emeralds/internal/kernel"
	"emeralds/internal/scenario"
)

func main() {
	c := cli.Register("emfuzz", cli.Seed, cli.Workers, cli.CSV, cli.TxtOut)
	scenarios := flag.Int("scenarios", 200, "number of scenarios to generate and run")
	cpus := flag.Int("cpus", 0, "pin every scenario to this simulated CPU count (0 = mix M ∈ {1, 2, 4})")
	lock := flag.String("lock", "", "pin the multicore scenarios to one lock regime: percpu, perqueue, biglock (empty = mix the regimes)")
	sampleUs := flag.Float64("sample-us", 0, "flight-recorder cadence in virtual microseconds (0 = about 256 samples per scenario horizon)")
	traceOut := flag.String("trace-out", "", "write the first violation's replay (minimized when -minimize) as Chrome/Perfetto trace-event JSON")
	minimize := flag.Bool("minimize", true, "delta-debug each violation into a minimal repro")
	reproDir := flag.String("repro-dir", "results/repros", "directory for violation repro files")
	metricsAddr := flag.String("metrics-addr", "", "serve live OpenMetrics on this address (/metrics, /debug/pprof) while the campaign runs")
	start := time.Now()
	c.Parse()
	c.AtLeast("scenarios", *scenarios, 1)
	c.AtLeast("cpus", *cpus, 0)
	if *lock != "" {
		if _, err := kernel.ParseLockRegime(*lock); err != nil {
			c.Fatalf("bad -lock: %v", err)
		}
	}
	c.Cadence("sample-us", *sampleUs)

	var scrape *harness.Scrape
	if *metricsAddr != "" {
		var err error
		scrape, err = harness.NewScrape(*metricsAddr)
		if err != nil {
			c.Fatalf("%v", err)
		}
		defer scrape.Close()
		if !c.Quiet {
			fmt.Fprintf(os.Stderr, "emfuzz: serving OpenMetrics on http://%s/metrics (pprof under /debug/pprof/)\n", scrape.Addr())
		}
	}

	rep, err := scenario.RunCampaign(context.Background(), scenario.CampaignConfig{
		Scenarios: *scenarios,
		BaseSeed:  c.Seed,
		CPUs:      *cpus,
		Lock:      *lock,
		Workers:   c.Workers,
		Minimize:  *minimize,
		SampleUs:  *sampleUs,
		Progress:  c.Progress(),
		Scrape:    scrape,
	})
	if err != nil {
		c.Fatalf("campaign: %v", err)
	}

	var repros []string
	for i, v := range rep.Violations {
		s := v.Minimized
		if s == nil {
			s = v.Scenario
		}
		path := filepath.Join(*reproDir,
			fmt.Sprintf("emfuzz-s%d-i%d-%s.json", c.Seed, v.Scenario.Index, v.Finding.Oracle))
		if err := os.MkdirAll(*reproDir, 0o755); err != nil {
			c.Fatalf("writing repros: %v", err)
		}
		if err := scenario.WriteRepro(s, path); err != nil {
			c.Fatalf("writing repro %d: %v", i, err)
		}
		repros = append(repros, path)
	}

	// -trace-out exports the first violation's replay for visual triage;
	// a clean campaign has no schedule worth exporting.
	if *traceOut != "" {
		if len(rep.Violations) == 0 {
			if !c.Quiet {
				fmt.Fprintln(os.Stderr, "emfuzz: -trace-out: no oracle violations; nothing exported")
			}
		} else {
			v := rep.Violations[0]
			s := v.Minimized
			if s == nil {
				s = v.Scenario
			}
			w, err := os.Create(*traceOut)
			if err != nil {
				c.Fatalf("-trace-out: %v", err)
			}
			if err := scenario.ExportTrace(s, w); err != nil {
				w.Close()
				c.Fatalf("-trace-out: %v", err)
			}
			if err := w.Close(); err != nil {
				c.Fatalf("-trace-out: %v", err)
			}
			if !c.Quiet {
				fmt.Fprintf(os.Stderr, "emfuzz: wrote %s (scenario %d replay)\n", *traceOut, v.Scenario.Index)
			}
		}
	}

	var out strings.Builder
	render(&out, c, rep, *cpus, repros)
	fmt.Print(out.String())
	c.EmitText(out.String())

	type config struct {
		Scenarios int     `json:"scenarios"`
		Seed      int64   `json:"seed"`
		CPUs      int     `json:"cpus"` // 0 = mixed M ∈ {1,2,4}
		Lock      string  `json:"lock,omitempty"`
		SampleUs  float64 `json:"sample_us,omitempty"`
		Minimize  bool    `json:"minimize"`
		ReproDir  string  `json:"repro_dir,omitempty"`
	}
	if c.JSON {
		a := harness.NewArtifact(c.Tool, config{*scenarios, c.Seed, *cpus, *lock, *sampleUs, *minimize, *reproDir},
			rep, c.EffectiveWorkers(), time.Since(start))
		a.Schema = harness.FuzzSchema
		path := c.ArtifactPath()
		if err := a.WriteFile(path); err != nil {
			c.Fatalf("writing artifact: %v", err)
		}
		if !c.Quiet {
			fmt.Fprintf(os.Stderr, "emfuzz: wrote %s\n", path)
		}
	}

	if len(rep.Violations) > 0 {
		os.Exit(1)
	}
}

func render(out *strings.Builder, c *cli.Common, rep *scenario.CampaignReport, cpus int, repros []string) {
	if c.CSV {
		rows := [][]string{
			{"scenarios", fmt.Sprint(rep.Scenarios)},
			{"clean", fmt.Sprint(rep.Clean)},
			{"feasible", fmt.Sprint(rep.Feasible)},
			{"completions", fmt.Sprint(rep.Completions)},
			{"misses", fmt.Sprint(rep.Misses)},
			{"violations", fmt.Sprint(len(rep.Violations))},
		}
		for _, k := range rep.KindOrder() {
			rows = append(rows, []string{"kind:" + k, fmt.Sprint(rep.PerKind[k])})
		}
		for _, o := range rep.OracleOrder() {
			rows = append(rows, []string{"oracle:" + o, fmt.Sprint(rep.PerOracle[o])})
		}
		rows = append(rows, []string{"anomalous", fmt.Sprint(rep.Anomalous)})
		classes := rep.AnomalyClasses()
		for _, cl := range sortedKeys(classes) {
			rows = append(rows, []string{"anomaly:" + cl, fmt.Sprint(classes[cl])})
		}
		cli.WriteCSV(out, []string{"metric", "value"}, rows)
		return
	}

	mix := "1,2,4 (mixed)"
	if cpus > 0 {
		mix = fmt.Sprint(cpus)
	}
	fmt.Fprintf(out, "emfuzz — %d scenarios, seed %d, M = %s\n\n", rep.Scenarios, c.Seed, mix)
	var rows [][]string
	for _, k := range rep.KindOrder() {
		rows = append(rows, []string{k, fmt.Sprint(rep.PerKind[k])})
	}
	cli.Table(out, []string{"archetype", "scenarios"}, rows)
	fmt.Fprintf(out, "\ndifferential oracle armed on %d scenarios (%d analysis-feasible)\n",
		rep.Clean, rep.Feasible)
	fmt.Fprintf(out, "%d completions, %d deadline misses across the campaign\n",
		rep.Completions, rep.Misses)

	// Per-oracle violation summary — always printed, so a failing
	// campaign leads with the breakdown instead of a bare exit 1.
	fmt.Fprintf(out, "\noracle summary:\n")
	var sum [][]string
	for _, o := range []string{
		scenario.OracleFeasibleMiss, scenario.OracleResidual, scenario.OracleInversion,
		scenario.OracleInvariant, scenario.OracleSync, scenario.OracleTruncated,
		scenario.OraclePanic,
	} {
		sum = append(sum, []string{o, fmt.Sprint(rep.PerOracle[o])})
	}
	cli.Table(out, []string{"oracle", "violations"}, sum)

	if rep.Anomalous > 0 {
		fmt.Fprintf(out, "\ntelemetry annotations (advisory): %d scenarios anomalous\n", rep.Anomalous)
		classes := rep.AnomalyClasses()
		var rows [][]string
		for _, cl := range sortedKeys(classes) {
			rows = append(rows, []string{cl, fmt.Sprint(classes[cl])})
		}
		cli.Table(out, []string{"anomaly", "count"}, rows)
	}

	if len(rep.Violations) == 0 {
		fmt.Fprintf(out, "\nno oracle violations\n")
		return
	}
	fmt.Fprintf(out, "\n%d ORACLE VIOLATIONS\n", len(rep.Violations))
	anomalous := map[int]string{}
	for _, a := range rep.Anomalies {
		if _, ok := anomalous[a.Index]; !ok {
			anomalous[a.Index] = a.Detail
		}
	}
	for i, v := range rep.Violations {
		min := ""
		if v.Minimized != nil {
			min = fmt.Sprintf(" (minimized to %d tasks, %v)",
				len(v.Minimized.Tasks), v.Minimized.Horizon)
		}
		fmt.Fprintf(out, "  scenario %d [%s, %s, M=%d]: %s: %s%s\n",
			v.Scenario.Index, v.Scenario.Name, v.Scenario.Policy, max(1, v.Scenario.CPUs),
			v.Finding.Oracle, v.Finding.Detail, min)
		if a, ok := anomalous[v.Scenario.Index]; ok {
			fmt.Fprintf(out, "    telemetry: %s\n", a)
		}
		if i < len(repros) {
			fmt.Fprintf(out, "    repro: %s\n", repros[i])
		}
	}
}

// sortedKeys returns a map's keys in lexical order for deterministic
// rendering.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
