package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emeralds/internal/cli/clitest"
)

var update = flag.Bool("update", false, "rewrite the golden trace export")

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestGoldenExport locks the -trace-out Perfetto export of a 20 ms
// slice of the Table 2 workload on the default CSD-3 build
// byte-for-byte: the simulation is deterministic and the encoder
// orders keys lexically, so any diff means the trace format (or the
// kernel's event sequence) changed. Regenerate deliberately with
// `go test ./cmd/emsim -update` and review the diff.
func TestGoldenExport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	clitest.Run(t, "-ms", "20", "-quiet", "-trace-out", out)
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("export differs from %s (%d vs %d bytes); regenerate with -update if the change is intended",
			golden, len(got), len(want))
	}
}

// TestBadNumericFlagsRefused: a run length that simulates nothing, a
// workload flag out of range, a run too short for -telemetry's default
// cadence, or a negative or non-finite -trace or -gantt exits 2 naming
// the flag; run on it, the tool would print an empty or substituted run
// with status 0, or fail mid-run with status 1.
func TestBadNumericFlagsRefused(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-ms", []string{"-ms", "-5"}},
		{"-ms", []string{"-ms", "0"}},
		{"-ms", []string{"-ms", "NaN"}},
		{"-ms", []string{"-ms", "1e300"}},
		{"-queues", []string{"-queues", "0", "-ms", "10"}},
		{"-n", []string{"-n", "-3", "-ms", "10"}},
		{"-u", []string{"-n", "5", "-u", "0", "-ms", "10"}},
		{"-div", []string{"-n", "5", "-div", "0", "-ms", "10"}},
		{"-ms", []string{"-ms", "0.0001", "-telemetry"}},
		{"-trace", []string{"-trace", "-5", "-ms", "10"}},
		{"-gantt", []string{"-gantt", "-3", "-ms", "10"}},
		{"-gantt", []string{"-gantt", "NaN", "-ms", "10"}},
		{"-gantt", []string{"-gantt", "Inf", "-ms", "10"}},
	} {
		clitest.Refused(t, "bad "+tc.flag+":", append(tc.args, "-quiet")...)
	}
}

// TestFlagSurface: emsim accepts the shared run and simulator flags and
// its own, and refuses -txt-out and -workers, which it never read (it
// runs one node, with no harness fan-out).
func TestFlagSurface(t *testing.T) {
	clitest.Surface(t, []string{
		"attrib", "cpus", "csv", "div", "gantt", "json", "json-out", "lock", "ms",
		"n", "policy", "queues", "quiet", "sample-cap", "sample-us", "seed",
		"standard-sem", "telemetry", "trace", "trace-out", "u",
	}, "txt-out", "workers")
}

// TestBadSamplingFlagsRefused: a sampling cadence that is negative or
// rounds to a zero interval, or a recorder ring of one sample, exits 2
// naming the flag. Run on them, the tool silently dropped the
// flight recorder (-sample-us -5 -telemetry printed no summary) or
// failed mid-run with a telemetry error and exit 1.
func TestBadSamplingFlagsRefused(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-sample-us", []string{"-sample-us", "-5", "-telemetry"}},
		{"-sample-us", []string{"-sample-us", "0.0001"}},
		{"-sample-us", []string{"-sample-us", "NaN"}},
		{"-sample-us", []string{"-sample-us", "Inf"}},
		{"-sample-cap", []string{"-sample-us", "100", "-sample-cap", "1"}},
		{"-sample-cap", []string{"-sample-us", "100", "-sample-cap", "-1"}},
		{"-cpus", []string{"-cpus", "0"}},
		{"-lock", []string{"-lock", "foo"}},
	} {
		clitest.Refused(t, "bad "+tc.flag+":", append(tc.args, "-ms", "10", "-quiet")...)
	}
}

// TestUntracedRunDropsNothing: a run that asks for no trace (no -trace,
// -gantt, -attrib or -trace-out) keeps no trace ring, so its artifact
// reports no dropped trace events. A one-event ring would report every
// event but the last as dropped, claiming a truncated trace-derived view
// the run never offered. The artifact's run block records no worker
// count either: emsim runs no harness fan-out.
func TestUntracedRunDropsNothing(t *testing.T) {
	out := filepath.Join(t.TempDir(), "a.json")
	clitest.Run(t, "-ms", "200", "-quiet", "-json-out", out)
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var art struct {
		Diagnostics struct {
			Counters     map[string]uint64 `json:"counters"`
			TraceDropped uint64            `json:"trace_dropped"`
		} `json:"diagnostics"`
		Run map[string]any `json:"run"`
	}
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatal(err)
	}
	if len(art.Diagnostics.Counters) == 0 {
		t.Fatal("artifact has no diagnostics counters")
	}
	if d := art.Diagnostics.TraceDropped; d != 0 {
		t.Errorf("untraced run reports %d dropped trace events, want 0", d)
	}
	if w, ok := art.Run["workers"]; ok {
		t.Errorf("run block records %v workers for a tool without -workers", w)
	}
}

// TestGanttAfterRingWrap: -gantt records into a 1<<16-event ring,
// which a minute of a 30-task set wraps many times over. The chart of
// the first 5 ms, whose events are gone, says so instead of printing
// only the time axis.
func TestGanttAfterRingWrap(t *testing.T) {
	out := clitest.Run(t, "-n", "30", "-u", "0.7", "-ms", "60000", "-gantt", "5")
	if !strings.Contains(out, "the trace ring dropped its") {
		t.Errorf("gantt of an overwritten window does not say so:\n%s", out)
	}
}
