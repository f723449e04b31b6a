// Command emtrace validates Chrome/Perfetto trace exports and the
// observability blocks of emeralds.artifact/v1 JSON files. Traces are
// written by `emsim -trace-out` (and emfuzz -trace-out for repros).
//
//	emtrace -check-trace trace.json        # validate a trace-event file
//	emtrace -check-artifact results/x.json # validate an artifact's diagnostics block
//
// These are the CI smoke tests: they exit non-zero with a diagnostic
// when a file does not match the expected shape.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"emeralds/internal/harness"
	"emeralds/internal/metrics"
)

func main() {
	checkArt := flag.String("check-artifact", "", "validate an artifact's diagnostics block and exit")
	checkTr := flag.String("check-trace", "", "validate a trace-event JSON file and exit")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "emtrace:", err)
		os.Exit(1)
	}
	switch {
	case *checkArt != "":
		if err := checkArtifact(*checkArt); err != nil {
			fail(err)
		}
		fmt.Printf("emtrace: %s: diagnostics block ok\n", *checkArt)
	case *checkTr != "":
		stats, err := checkTrace(*checkTr)
		if err != nil {
			fail(err)
		}
		fmt.Printf("emtrace: %s: %s\n", *checkTr, stats)
	default:
		fmt.Fprintln(os.Stderr, "usage: emtrace -check-trace FILE | -check-artifact FILE (export a trace with emsim -trace-out FILE)")
		os.Exit(2)
	}
}

// checkArtifact validates that an artifact carries a well-formed
// diagnostics block: the full counter set (every metrics.ID name, no
// strays) and internally consistent task summaries.
func checkArtifact(path string) error {
	a, err := harness.ReadArtifact(path)
	if err != nil {
		return err
	}
	d := a.Diagnostics
	if d == nil {
		return fmt.Errorf("%s: no diagnostics block", path)
	}
	// The classic counter block (IDs below Migrations) is always
	// present; the multicore counters appear only when non-zero, which
	// keeps single-CPU artifacts byte-stable.
	valid := map[string]bool{}
	for id := metrics.ID(0); id < metrics.NumIDs; id++ {
		valid[id.String()] = true
		if _, ok := d.Counters[id.String()]; !ok && id < metrics.Migrations {
			return fmt.Errorf("%s: counter %q missing", path, id)
		}
	}
	for name := range d.Counters {
		if !valid[name] {
			return fmt.Errorf("%s: stray counter %q", path, name)
		}
	}
	for _, ts := range d.Tasks {
		if ts.Task == "" || (ts.Metric != "response" && ts.Metric != "blocking") {
			return fmt.Errorf("%s: malformed task summary %+v", path, ts)
		}
		if ts.N > 0 && (ts.MinUs > ts.P50Us || ts.P50Us > ts.MaxUs) {
			return fmt.Errorf("%s: %s/%s quantiles not monotone: %+v", path, ts.Task, ts.Metric, ts)
		}
	}
	return nil
}

// checkTrace validates the shape Perfetto requires of a trace-event
// file: parseable JSON, a non-empty traceEvents array, non-negative
// slice durations, and balanced flow start/finish pairs.
func checkTrace(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return "", fmt.Errorf("%s: not valid JSON: %w", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		return "", fmt.Errorf("%s: empty traceEvents", path)
	}
	var slices, instants int
	flows := map[any]int{}
	for i, e := range doc.TraceEvents {
		ph, _ := e["ph"].(string)
		switch ph {
		case "X":
			slices++
			if dur, ok := e["dur"].(float64); !ok || dur < 0 {
				return "", fmt.Errorf("%s: event %d has bad duration %v", path, i, e["dur"])
			}
		case "i":
			instants++
		case "s":
			flows[e["id"]]++
		case "f":
			flows[e["id"]]--
		case "M":
		case "":
			return "", fmt.Errorf("%s: event %d has no ph", path, i)
		}
	}
	for id, bal := range flows {
		if bal != 0 {
			return "", fmt.Errorf("%s: flow id %v unbalanced (%+d)", path, id, bal)
		}
	}
	return fmt.Sprintf("%d events (%d slices, %d instants, %d flows)",
		len(doc.TraceEvents), slices, instants, len(flows)), nil
}
