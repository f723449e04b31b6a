package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"emeralds/internal/harness"
	"emeralds/internal/kernel"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/telemetry"
	"emeralds/internal/vtime"
)

var update = flag.Bool("update", false, "rewrite the golden file")

// goldenSeries is the reference run: an overloaded EDF task set, so the
// golden locks the FAIL verdict and burn-alert rendering alongside the
// sparklines and window table.
func goldenSeries(t *testing.T) *telemetry.Series {
	t.Helper()
	sys := kernel.NewNode(sim.Config{Policy: sim.PolicyEDF})
	sys.AddTask(task.Spec{Name: "a", Period: 10 * vtime.Millisecond, WCET: 4 * vtime.Millisecond})
	sys.AddTask(task.Spec{Name: "b", Period: 20 * vtime.Millisecond, WCET: 9 * vtime.Millisecond})
	sys.AddTask(task.Spec{Name: "c", Period: 50 * vtime.Millisecond, WCET: 16 * vtime.Millisecond})
	rec, err := telemetry.Attach(sys.Kernel(), telemetry.Config{Interval: vtime.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Boot(); err != nil {
		t.Fatal(err)
	}
	sys.Run(400 * vtime.Millisecond)
	return rec.Series()
}

func renderGolden(t *testing.T) string {
	var sb strings.Builder
	render(&sb, goldenSeries(t), telemetry.SLO{}, 8, "golden")
	return sb.String()
}

// TestGoldenReport locks emstat's text output byte-for-byte.
func TestGoldenReport(t *testing.T) {
	got := renderGolden(t)
	golden := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("report differs from golden (rerun with -update after intentional changes)\ngot:\n%s", got)
	}
}

// TestGoldenFindsTrouble: the reference overload must actually trip the
// analysis — otherwise the golden isn't exercising the FAIL paths.
func TestGoldenFindsTrouble(t *testing.T) {
	rep := telemetry.Analyze(goldenSeries(t), telemetry.SLO{})
	if rep.Verdicts[0].Pass {
		t.Error("miss-rate verdict passed on an overloaded task set")
	}
	if len(rep.Alerts) == 0 {
		t.Error("no burn-rate alert on sustained overload")
	}
}

// TestWorkerIndependence: the series, and therefore the rendered
// report, is a pure function of the scenario — identical bytes at any
// GOMAXPROCS.
func TestWorkerIndependence(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	one := renderGolden(t)
	runtime.GOMAXPROCS(8)
	eight := renderGolden(t)
	runtime.GOMAXPROCS(prev)
	if one != eight {
		t.Error("report bytes differ between GOMAXPROCS=1 and GOMAXPROCS=8")
	}
}

// TestArtifactRoundTrip: a series written into an artifact and read
// back through loadSeries renders identically to the live series.
func TestArtifactRoundTrip(t *testing.T) {
	s := goldenSeries(t)
	a := harness.NewArtifact("emstat-test", nil, "x", 1, time.Second)
	a.Timeseries = s
	path := filepath.Join(t.TempDir(), "artifact.json")
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadSeries(path)
	if err != nil {
		t.Fatal(err)
	}
	la, _ := json.Marshal(loaded)
	lb, _ := json.Marshal(s)
	if string(la) != string(lb) {
		t.Error("series changed across the artifact round trip")
	}
}

func TestLoadSeriesRejectsMissingBlock(t *testing.T) {
	a := harness.NewArtifact("emstat-test", nil, "x", 1, time.Second)
	path := filepath.Join(t.TempDir(), "artifact.json")
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSeries(path); err == nil {
		t.Error("artifact without a timeseries block accepted")
	}
}

// TestCSVOutput sanity-checks the machine-readable mode.
func TestCSVOutput(t *testing.T) {
	var sb strings.Builder
	writeCSV(&sb, goldenSeries(t), 8)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 9 {
		t.Fatalf("CSV has %d lines, want header + 8 windows:\n%s", len(lines), sb.String())
	}
	want := len(strings.Split(lines[0], ","))
	for i, l := range lines {
		if got := len(strings.Split(l, ",")); got != want {
			t.Errorf("CSV line %d has %d fields, want %d: %q", i, got, want, l)
		}
	}
}
