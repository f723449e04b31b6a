package main

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"emeralds/internal/cli/clitest"
)

var update = flag.Bool("update", false, "rewrite the golden file")

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestBadNumericFlagsRefused: a run length that simulates nothing, or a
// scenario flag out of range, exits 2 naming the flag; run on it, the
// tool would report on an empty or substituted run with status 0.
func TestBadNumericFlagsRefused(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-ms", []string{"-ms", "-1"}},
		{"-ms", []string{"-ms", "0"}},
		{"-ms", []string{"-ms", "Inf"}},
		{"-queues", []string{"-queues", "-1", "-ms", "10"}},
		{"-n", []string{"-n", "-1", "-ms", "10"}},
		{"-u", []string{"-n", "5", "-u", "-1", "-ms", "10"}},
		{"-div", []string{"-n", "5", "-div", "0", "-ms", "10"}},
	} {
		clitest.Refused(t, "bad "+tc.flag+":", append(tc.args, "-quiet")...)
	}
}

// goldenScenario is the reference run: RM on the Table 2 workload long
// enough to produce τ₄'s overload misses, so the golden locks the miss
// root-cause rendering too.
func goldenScenario() scenario {
	return scenario{Policy: "rm", Queues: 3, Div: 1, U: 0.7, Seed: 1, Millis: 50}
}

func renderScenario(t *testing.T, cfg scenario) string {
	t.Helper()
	rep, _, err := runScenario(cfg, nil, nil)
	if err != nil {
		t.Fatalf("runScenario: %v", err)
	}
	var sb strings.Builder
	rep.RenderText(&sb, cfg.String())
	return sb.String()
}

// TestGoldenReport locks emreport's text output byte-for-byte.
func TestGoldenReport(t *testing.T) {
	got := renderScenario(t, goldenScenario())
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

// TestWorkerIndependence: the report is a pure function of the trace —
// identical bytes whether the process runs on one core or many. This
// is the -workers 1 vs -workers 8 guarantee: worker fan-out never
// enters the replay path.
func TestWorkerIndependence(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	one := renderScenario(t, goldenScenario())
	runtime.GOMAXPROCS(8)
	eight := renderScenario(t, goldenScenario())
	runtime.GOMAXPROCS(prev)
	if one != eight {
		t.Error("report bytes differ between GOMAXPROCS=1 and GOMAXPROCS=8")
	}
}

// TestTraceFileRoundTrip: analyzing an exported raw trace file must
// produce exactly the report of the live in-process replay.
func TestTraceFileRoundTrip(t *testing.T) {
	cfg := goldenScenario()
	sys, err := buildSystem(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Trace().ExportJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	fromFile, _, err := analyzeFile(path)
	if err != nil {
		t.Fatalf("analyzeFile: %v", err)
	}
	var a, b strings.Builder
	fromFile.RenderText(&a, "x")
	live := renderScenario(t, cfg)
	// renderScenario uses the scenario as source; normalize headers.
	b.WriteString(strings.Replace(live, "EMERALDS latency attribution — "+cfg.String(),
		"EMERALDS latency attribution — x", 1))
	if a.String() != b.String() {
		t.Error("trace-file replay differs from live replay")
	}
}

// TestCSVOutput sanity-checks the machine-readable mode.
func TestCSVOutput(t *testing.T) {
	rep, _, err := runScenario(goldenScenario(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	writeCSV(&sb, rep)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("CSV has no data rows:\n%s", sb.String())
	}
	want := len(strings.Split(lines[0], ","))
	for i, l := range lines {
		if got := len(strings.Split(l, ",")); got != want {
			t.Errorf("CSV line %d has %d fields, want %d: %q", i, got, want, l)
		}
	}
}

// TestMalformedTraceFileRefused: -trace on a raw log whose events carry
// a negative cpu or dur fails with an error naming the event, instead
// of panicking in the replay or reporting negative overhead.
func TestMalformedTraceFileRefused(t *testing.T) {
	for name, doc := range map[string]string{
		"negative-cpu": `{"schema":"emeralds.trace/v1","total":2,"dropped":0,"events":[` +
			`{"at":0,"kind":"release","task":"a"},{"at":0,"kind":"dispatch","task":"a","cpu":-1},` +
			`{"at":1000,"kind":"complete","task":"a","cpu":-1}]}`,
		"negative-dur": `{"schema":"emeralds.trace/v1","total":3,"dropped":0,"events":[` +
			`{"at":0,"kind":"release","task":"a"},{"at":0,"kind":"dispatch","task":"a"},` +
			`{"at":1000,"kind":"complete","task":"a","dur":-700}]}`,
	} {
		path := filepath.Join(t.TempDir(), name+".json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		rep, _, err := analyzeFile(path)
		if err == nil {
			t.Errorf("%s: analyzeFile accepted it: %+v", name, rep)
		} else if !strings.Contains(err.Error(), "event ") {
			t.Errorf("%s: error %q does not name the event", name, err)
		}
	}
}
